package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/store"
)

// Serve workload shape. ErdosRenyi(16384, 16) has 262,144 entries and
// is 8.0 MB as Matrix Market text; A ⊙ (A·A) keeps about 4k of them.
const (
	erN      = 16384
	erDegree = 16
	// serveColdStarts is how many times a run launches the server from
	// scratch; setup_s is their median. One cold start takes 0.07–0.2 s
	// and ranges ±25% within a run, so a single one cannot gate.
	serveColdStarts = 9
	// serveWarmup is the closed-loop traffic run, unmeasured, between
	// the last cold start and the timed phase.
	serveWarmup = 2 * time.Second
	// deltaEvery: client A of serve-byref-delta uploads a fresh values
	// delta on every fourth operation.
	deltaEvery = 4
	// budgetSpareVersions is how many delta versions the byref server's
	// memory budget holds beyond its resident set, so each delta in
	// steady state is one store insert and one eviction.
	budgetSpareVersions = 4
	// hostWarmupTime is how long the CPUs are kept busy before the
	// cold starts (see hostWarmup).
	hostWarmupTime = 1500 * time.Millisecond
)

// serveInputs are a serve workload's generated inputs and reference.
type serveInputs struct {
	a    *sparse.CSR[float64]
	body []byte               // a as Matrix Market text
	want *sparse.CSR[float64] // A ⊙ (A·A), by the harness's reference
}

func newServeInputs(seed uint64) serveInputs {
	a := gen.ErdosRenyi(erN, erDegree, seed)
	return serveInputs{a: a, body: writeMTX(a), want: refMaskedSquare(a)}
}

// server is one running mspgemm-serve.
type server struct {
	prog   *program
	base   string
	client *http.Client
}

// launchServer starts the server on a free loopback port and returns
// once /healthz answers 200.
func launchServer(ctx context.Context, bin string, args []string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		prog, err := startProgram(bin, append([]string{"-addr", addr}, args...), nil, io.Discard)
		if err != nil {
			return nil, err
		}
		s := &server{prog: prog, base: "http://" + addr, client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}}}
		if lastErr = s.waitHealthy(ctx); lastErr == nil {
			return s, nil
		}
		s.stop()
		lastErr = fmt.Errorf("%w (server log: %s)", lastErr, prog.stderr)
	}
	return nil, lastErr
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !s.prog.running() {
			return errors.New("server exited during start-up")
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not healthy within 10s")
}

func (s *server) stop() {
	s.prog.stop(10 * time.Second)
	s.client.CloseIdleConnections()
}

// do sends one request and reads the whole response into buf. A
// non-2xx status is an error.
func (s *server) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, buf.Bytes())
	}
	return nil
}

// upload PUTs body to /v1/operands (query may select a values delta)
// and returns the stored operand's ref.
func (s *server) upload(ctx context.Context, query string, body []byte, buf *bytes.Buffer) (string, error) {
	if err := s.do(ctx, http.MethodPut, "/v1/operands"+query, body, buf); err != nil {
		return "", err
	}
	var receipt struct {
		Operands []struct {
			Ref string `json:"ref"`
		} `json:"operands"`
	}
	if err := json.Unmarshal(buf.Bytes(), &receipt); err != nil {
		return "", fmt.Errorf("operand receipt: %w", err)
	}
	if len(receipt.Operands) != 1 {
		return "", fmt.Errorf("operand receipt lists %d operands, want 1", len(receipt.Operands))
	}
	return receipt.Operands[0].Ref, nil
}

// serveStats is the part of /stats the benchmark reads.
type serveStats struct {
	Session struct {
		Cache struct {
			Hits, Misses uint64
		} `json:"cache"`
		Store struct {
			Hits, Misses, Puts, Reputs, Evictions uint64
		} `json:"store"`
	} `json:"session"`
	Admission struct {
		MaxInFlight  int `json:"max_in_flight"`
		Queued, Shed uint64
	} `json:"admission"`
}

func (s *server) stats(ctx context.Context) (serveStats, error) {
	var st serveStats
	var buf bytes.Buffer
	if err := s.do(ctx, http.MethodGet, "/stats", nil, &buf); err != nil {
		return st, err
	}
	return st, json.Unmarshal(buf.Bytes(), &st)
}

// decodeResult decodes a serial-format response body.
func decodeResult(body []byte) (*sparse.CSR[float64], error) {
	return serial.Read(bytes.NewReader(body))
}

// opFunc runs one operation of client c and returns its latency. A
// returned error marks the operation failed: a non-2xx response, a
// transport error or a result that does not match the reference.
type opFunc func(ctx context.Context, c int) (time.Duration, error)

// loopStats is one closed-loop phase's outcome.
type loopStats struct {
	lat          []float64 // milliseconds, successful operations only
	attempted    int
	failed       int
	elapsed      time.Duration
	firstFailure string
}

// closedLoop runs clients that each start their next operation only
// when the previous one has completed, until dur has passed. Operations
// started before the deadline run to completion; elapsed runs until
// the last one ends.
func closedLoop(ctx context.Context, clients int, dur time.Duration, op opFunc) loopStats {
	var mu sync.Mutex
	var ls loopStats
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				lat, err := op(ctx, c)
				mu.Lock()
				ls.attempted++
				if err != nil {
					ls.failed++
					if ls.firstFailure == "" {
						ls.firstFailure = err.Error()
					}
				} else {
					ls.lat = append(ls.lat, float64(lat.Nanoseconds())/1e6)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ls.elapsed = time.Since(start)
	return ls
}

// serveCase is what differs between the two serve workloads.
type serveCase struct {
	clients int
	// tailCap is the tail percentile the 25 s run length supports with
	// at least ten samples beyond it on a slow host as on a fast one.
	tailCap int
	// budget is the server's -memory-budget, 0 for the default; the
	// traced replay's store and plan cache share one of the same size.
	budget int64
	// setup brings a freshly launched server to its first correct
	// result.
	setup func(ctx context.Context, s *server) error
	// op returns the operation function for the given server; traced
	// operations also replay their layer calls into tr.
	op func(s *server, tr *tracer, rep *replayer) opFunc
}

// runServe runs a serve workload: cold starts, warm-up, the timed phase
// (or, traced, an untraced and a traced half), then the probes.
func runServe(ctx context.Context, cfg config, in serveInputs, sc serveCase) (*outcome, error) {
	out := newOutcome()
	setups := make([]float64, 0, serveColdStarts)
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var serverArgs []string
	if sc.budget > 0 {
		serverArgs = []string{"-memory-budget", strconv.FormatInt(sc.budget, 10)}
	}
	hostWarmup(hostWarmupTime)
	for i := 0; i < serveColdStarts; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		start := time.Now()
		s, err := launchServer(ctx, cfg.serveBin, serverArgs)
		if err != nil {
			return nil, err
		}
		srv = s
		if err := sc.setup(ctx, s); err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		out.checked++
	}
	out.set("setup_s", median(setups), len(setups))

	count := func(ls loopStats) {
		out.checked += ls.attempted
		if ls.firstFailure != "" && out.firstFailure == "" {
			out.firstFailure = ls.firstFailure
		}
	}
	warm := closedLoop(ctx, sc.clients, serveWarmup, sc.op(srv, nil, nil))
	count(warm)
	out.setupFailures += warm.failed

	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		dur /= 2
	}
	st0, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.prog.cpu()
	if err != nil {
		return nil, err
	}
	timed := closedLoop(ctx, sc.clients, dur, sc.op(srv, nil, nil))
	cpu1, err := srv.prog.cpu()
	if err != nil {
		return nil, err
	}
	st1, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	count(timed)
	out.attempted, out.failed = timed.attempted, timed.failed
	out.meta["program_gomaxprocs"] = st1.Admission.MaxInFlight
	out.meta["program_go_version"] = programGoVersion(cfg.serveBin)
	out.meta["load"] = fmt.Sprintf("closed loop, %d client(s), one process, loopback HTTP", sc.clients)
	if sc.budget > 0 {
		out.meta["memory_budget_bytes"] = sc.budget
	}

	sort.Float64s(timed.lat)
	n := len(timed.lat)
	p50, _ := percentile(timed.lat, 50)
	tailPct := tailPercentile(n, sc.tailCap)
	tail, beyond := percentile(timed.lat, tailPct)
	out.meta["tail_percentile"] = tailPct
	out.meta["tail_samples_beyond"] = beyond

	if !cfg.trace {
		completed := n
		out.set("p50_ms", p50, n)
		out.set("tail_ms", tail, n)
		out.set("ops_per_s", float64(completed)/timed.elapsed.Seconds(), completed)
		out.set("cpu_ms_per_op", cpuMsPerOp(cpu0, cpu1, completed), completed)
		rss, err := srv.prog.peakRSS()
		if err != nil {
			return nil, err
		}
		out.set("peak_rss_mb", rss, 1)
		return out, nil
	}

	// Traced half: the same traffic, each operation followed by an
	// in-process replay of its layer calls.
	tr := newTracer()
	rep := newReplayer(in.a, sc.budget)
	traced := closedLoop(ctx, sc.clients, dur, sc.op(srv, tr, rep))
	count(traced)
	out.attempted += traced.attempted
	out.failed += traced.failed
	stEnd, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	spans := tr.snapshot()
	if err := writeSpans(tracePath(cfg), spans); err != nil {
		return nil, err
	}
	out.meta["trace_file"] = tracePath(cfg)
	lt := layerTimes(spans)
	out.setMedian("serve.request_ms", lt["serve.request"])
	out.setMedian("serve.self_ms", selfTimes(spans, "serve.request"))
	out.setMedian("mtx.read_ms", lt["mtx.read"])
	if v := out.metrics["mtx.read_ms"]; v > 0 {
		out.set("mtx.read_mb_per_s", float64(len(in.body))/1e6/(v/1e3), out.samples["mtx.read_ms"])
	}
	out.setMedian("serial.write_ms", lt["serial.write"])
	out.setMedian("sparse.fingerprint_ms", lt["sparse.fingerprint"])
	out.setMedian("store.put_values_ms", lt["store.put_values"])
	out.setMedian("store.get_ms", lt["store.get"])
	out.set("trace.overhead", out.metrics["serve.request_ms"]/p50, len(lt["serve.request"]))

	// Counters from the untraced half, which carried undisturbed traffic.
	ds := st1.Session.Store
	ds.Hits -= st0.Session.Store.Hits
	ds.Misses -= st0.Session.Store.Misses
	ds.Puts -= st0.Session.Store.Puts
	ds.Reputs -= st0.Session.Store.Reputs
	ds.Evictions -= st0.Session.Store.Evictions
	lookups := ds.Hits + ds.Misses + ds.Puts + ds.Reputs
	out.set("store.hit_ratio", ratio(ds.Hits+ds.Reputs, lookups), int(lookups))
	out.set("store.evictions", float64(ds.Evictions), 1)
	ch := st1.Session.Cache.Hits - st0.Session.Cache.Hits
	cm := st1.Session.Cache.Misses - st0.Session.Cache.Misses
	out.set("core.plan_hit_ratio", ratio(ch, ch+cm), int(ch+cm))
	out.set("core.plans_built", float64(stEnd.Session.Cache.Misses), 1)
	out.set("serve.admission_queued", float64(st1.Admission.Queued-st0.Admission.Queued), timed.attempted)
	out.set("serve.shed", float64(st1.Admission.Shed-st0.Admission.Shed), timed.attempted)

	// Probes run with the server stopped, so they have the host alone.
	pr, err := probeProduct(semiring.PlusTimes[float64]{}, in.a.PatternView(), in.a, in.a)
	if err != nil {
		return nil, err
	}
	pr.report(out)
	return out, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replayer holds the in-process layer objects a traced serve run
// replays each request against, built like a serving session's.
type replayer struct {
	st    *store.Store
	cache *core.PlanCache[float64, semiring.PlusTimes[float64]]
	pool  *core.ExecutorPool[float64, semiring.PlusTimes[float64]]
	base  store.Ref
}

func newReplayer(a *sparse.CSR[float64], budgetBytes int64) *replayer {
	sr := semiring.PlusTimes[float64]{}
	budget := core.NewMemBudget(budgetBytes)
	r := &replayer{
		st:    store.New(budget),
		cache: core.NewPlanCache[float64](sr, 0, 0),
		pool:  core.NewExecutorPool[float64](sr, 0),
	}
	r.cache.AttachBudget(budget)
	r.base, _ = r.st.Put(a.Clone())
	return r
}

// multiply replays the multiply half of a request on m: plan lookup
// (with the plan key's fingerprint as a probe child), execute on a
// pooled executor, encode.
func (r *replayer) multiply(tr *tracer, op, root int, m *sparse.CSR[float64]) error {
	fpStart := time.Now()
	fpSink.Add(m.Pattern.Fingerprint())
	fpEnd := time.Now()
	var plan *core.Plan[float64, semiring.PlusTimes[float64]]
	var err error
	lookup := tr.time(op, root, "core.plan_lookup", func() {
		plan, err = r.cache.GetOrPlan(m.PatternView(), m, m, core.Options{})
	})
	tr.add(op, lookup, "sparse.fingerprint", fpStart, fpEnd)
	if err != nil {
		return err
	}
	exec := r.pool.Get()
	var res *sparse.CSR[float64]
	tr.time(op, root, "core.execute", func() {
		res, err = plan.ExecuteOnOpts(exec, m, m, core.ExecOptions{})
	})
	r.pool.Put(exec)
	if err != nil {
		return err
	}
	tr.time(op, root, "serial.write", func() { err = serial.Write(io.Discard, res) })
	return err
}

// runServeInline is serve-inline-mtx: one closed-loop client POSTs the
// whole graph as Matrix Market text and gets A ⊙ (A·A) back in the
// serial format.
func runServeInline(ctx context.Context, cfg config) (*outcome, error) {
	in := newServeInputs(cfg.seed)
	const path = "/v1/multiply?format=serial"
	check := func(body []byte) error {
		got, err := decodeResult(body)
		if err != nil {
			return err
		}
		return checkScaled(got, in.want, 1)
	}
	sc := serveCase{
		clients: 1,
		tailCap: 90,
		setup: func(ctx context.Context, s *server) error {
			var buf bytes.Buffer
			if err := s.do(ctx, http.MethodPost, path, in.body, &buf); err != nil {
				return err
			}
			return check(buf.Bytes())
		},
		op: func(s *server, tr *tracer, rep *replayer) opFunc {
			var buf bytes.Buffer
			return func(ctx context.Context, _ int) (time.Duration, error) {
				start := time.Now()
				err := s.do(ctx, http.MethodPost, path, in.body, &buf)
				end := time.Now()
				if err == nil {
					err = check(buf.Bytes())
				}
				if err == nil && tr != nil {
					err = replayInline(tr, rep, in.body, start, end)
				}
				return end.Sub(start), err
			}
		},
	}
	return runServe(ctx, cfg, in, sc)
}

// replayInline replays one inline request: decode, the store-through
// (with its fingerprints as a probe child), then the multiply.
func replayInline(tr *tracer, rep *replayer, body []byte, start, end time.Time) error {
	op := tr.newOp()
	root := tr.add(op, 0, "serve.request", start, end)
	var m *sparse.CSR[float64]
	var err error
	tr.time(op, root, "mtx.read", func() { m, _, err = mtx.Read(bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	fpStart := time.Now()
	fpSink.Add(m.Pattern.Fingerprint() ^ sparse.ValuesFingerprint(m.Val))
	fpEnd := time.Now()
	put := tr.time(op, root, "store.put", func() { rep.st.Put(m) })
	tr.add(op, put, "sparse.fingerprint", fpStart, fpEnd)
	return rep.multiply(tr, op, root, m)
}

// runServeByref is serve-byref-delta: the graph is uploaded once at
// set-up; client B multiplies the resident operand by reference, and
// client A, on every fourth operation, first uploads a fresh
// values-only delta (A scaled by s) and then multiplies the new ref,
// whose product is s²·C₀. A's other operations multiply its current
// version.
func runServeByref(ctx context.Context, cfg config) (*outcome, error) {
	in := newServeInputs(cfg.seed)
	budget, err := residentBudget(in.a)
	if err != nil {
		return nil, err
	}
	patternHex := fmt.Sprintf("%016x", in.a.Pattern.Fingerprint())
	check := func(body []byte, scale float64) error {
		got, err := decodeResult(body)
		if err != nil {
			return err
		}
		return checkScaled(got, in.want, scale)
	}
	multiply := func(ctx context.Context, s *server, ref string, buf *bytes.Buffer) error {
		return s.do(ctx, http.MethodPost, "/v1/multiply?format=serial&a="+ref, nil, buf)
	}
	// Client 0 is A, client 1 is B. Their state lives as long as the
	// server, across the warm-up and timed phases.
	var clients [2]*byrefClient
	// deltas numbers the deltas sent to the current server, so no
	// values are ever sent to it twice.
	var deltas int
	sc := serveCase{
		clients: 2,
		tailCap: 95,
		budget:  budget,
		setup: func(ctx context.Context, s *server) error {
			var buf bytes.Buffer
			ref, err := s.upload(ctx, "", in.body, &buf)
			if err != nil {
				return err
			}
			if err := multiply(ctx, s, ref, &buf); err != nil {
				return err
			}
			deltas = 0
			for c := range clients {
				clients[c] = &byrefClient{ref: ref, scale: 1}
			}
			return check(buf.Bytes(), 1)
		},
		op: func(s *server, tr *tracer, rep *replayer) opFunc {
			return func(ctx context.Context, c int) (time.Duration, error) {
				st := clients[c]
				isDelta := c == 0 && st.ops%deltaEvery == 0
				st.ops++
				ref, scale := st.ref, st.scale
				if isDelta {
					deltas++
					scale = 1 + float64(deltas)/1024
					st.vals = scaledValues(st.vals, in.a.Val, scale)
					st.body = float64LE(st.body, st.vals)
				}
				start := time.Now()
				var err error
				if isDelta {
					ref, err = s.upload(ctx, "?values_for="+patternHex, st.body, &st.buf)
				}
				if err == nil {
					err = multiply(ctx, s, ref, &st.buf)
				}
				end := time.Now()
				if err == nil {
					err = check(st.buf.Bytes(), scale)
				}
				if err != nil {
					return end.Sub(start), err
				}
				st.ref, st.scale = ref, scale
				if tr != nil {
					err = replayByref(tr, rep, st, isDelta, start, end)
				}
				return end.Sub(start), err
			}
		},
	}
	return runServe(ctx, cfg, in, sc)
}

// byrefClient is one serve-byref-delta client's state.
type byrefClient struct {
	buf bytes.Buffer
	ops int
	// ref and scale name the operand version the client multiplies:
	// A scaled by scale.
	ref   string
	scale float64
	// vals and body are the values of the client's latest delta and
	// their wire form.
	vals []float64
	body []byte
}

// replayByref replays one by-ref operation: for a delta, the store's
// PutValues (with the values fingerprint as a probe child); then the
// operand lookup and the multiply.
func replayByref(tr *tracer, rep *replayer, st *byrefClient, isDelta bool, start, end time.Time) error {
	op := tr.newOp()
	root := tr.add(op, 0, "serve.request", start, end)
	ref, err := store.ParseRef(st.ref)
	if err != nil {
		return err
	}
	if isDelta {
		owned := append([]float64(nil), st.vals...)
		fpStart := time.Now()
		fpSink.Add(sparse.ValuesFingerprint(owned))
		fpEnd := time.Now()
		put := tr.time(op, root, "store.put_values", func() {
			ref, _, err = rep.st.PutValues(rep.base.Pattern, owned)
		})
		tr.add(op, put, "sparse.fingerprint", fpStart, fpEnd)
		if err != nil {
			return err
		}
	} else if _, ok := rep.st.Get(ref); !ok {
		// A version the client created before tracing began: file it,
		// untimed, so the replay can resolve it like the server did.
		if ref, _, err = rep.st.PutValues(rep.base.Pattern, append([]float64(nil), st.vals...)); err != nil {
			return err
		}
	}
	var m *sparse.CSR[float64]
	var ok bool
	tr.time(op, root, "store.get", func() { m, ok = rep.st.Get(ref) })
	if !ok {
		return fmt.Errorf("replay store lost operand %s", ref)
	}
	return rep.multiply(tr, op, root, m)
}

// scaledValues returns s·v in dst.
func scaledValues(dst, v []float64, s float64) []float64 {
	dst = append(dst[:0], v...)
	for i := range dst {
		dst[i] *= s
	}
	return dst
}

// float64LE encodes v as the raw little-endian float64 words a values
// delta body carries.
func float64LE(dst []byte, v []float64) []byte {
	dst = dst[:0]
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// residentBudget sizes serve-byref-delta's memory budget: what a
// session holds after the set-up upload and first multiply (operand,
// pattern and plan), plus budgetSpareVersions delta versions and half
// of one more, measured on an in-process session of the same code.
func residentBudget(a *sparse.CSR[float64]) (int64, error) {
	s := maskedspgemm.NewSession()
	ref, _ := s.PutOperand(a.Clone())
	if _, err := s.MultiplyRefs(ref.Pattern, ref, ref); err != nil {
		return 0, err
	}
	resident := s.Stats().Budget.UsedBytes
	if _, _, err := s.PutOperandValues(ref.Pattern, scaledValues(nil, a.Val, 2)); err != nil {
		return 0, err
	}
	version := s.Stats().Budget.UsedBytes - resident
	return resident + budgetSpareVersions*version + version/2, nil
}
