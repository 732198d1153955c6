package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the harness's metric tables
// and workload list in step with BENCHMARK.json: every declared metric
// is printed under its declared unit, and nothing else is.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []decl, table []metricDef) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness reports %d", what, len(declared), len(table))
			return
		}
		for i, d := range declared {
			if d.Name != table[i].name || d.Unit != table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)", what, i, d.Name, d.Unit, table[i].name, table[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
