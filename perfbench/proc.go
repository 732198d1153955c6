package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maskedspgemm/internal/sparse"
)

// program is one child process running code under test: the server of
// a serve workload or the apps worker.
type program struct {
	cmd    *exec.Cmd
	stderr *tailBuffer
	exited chan struct{}
	err    error
}

// startProgram starts name with args. The child is killed if the
// harness dies, so no run leaves a process behind.
func startProgram(name string, args []string, stdin io.Reader, stdout io.Writer) (*program, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdin = stdin
	cmd.Stdout = stdout
	p := &program{cmd: cmd, stderr: &tailBuffer{max: 8 << 10}, exited: make(chan struct{})}
	cmd.Stderr = p.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *program) pid() int { return p.cmd.Process.Pid }

// running reports whether the process has not exited yet.
func (p *program) running() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop asks the process to exit with SIGTERM, kills it if it has not
// exited after grace, and returns once it has been reaped.
func (p *program) stop(grace time.Duration) {
	if !p.running() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// wait waits for the process to exit on its own, killing it after
// timeout.
func (p *program) wait(timeout time.Duration) error {
	select {
	case <-p.exited:
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("%s did not exit within %v", filepath.Base(p.cmd.Path), timeout)
	}
	return p.err
}

// cpu reads the process's utime+stime.
func (p *program) cpu() (cpuTicks, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStat(data)
}

// peakRSS reads the process's resident high-water mark in MB.
func (p *program) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// tailBuffer keeps the last max bytes written to it: a child's log, kept
// for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// sourceID identifies the code under test.
type sourceID struct {
	// commit is the git commit when the working directory is a git
	// checkout, else "unknown".
	commit string
	// digest is a SHA-256 over every Go source and module file of the
	// checkout, so runs group by the code they measured even where
	// there is no git metadata.
	digest string
}

// sourceIdentity identifies the code in the working directory.
func sourceIdentity() sourceID {
	id := sourceID{commit: gitCommit(), digest: "unknown"}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err == nil {
		id.digest = hex.EncodeToString(h.Sum(nil))
	}
	return id
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git (which would search parent
// directories and read configuration outside the checkout).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// writeMTX renders m in Matrix Market coordinate form with 17
// significant digits, so values round-trip exactly. The harness has
// its own writer so that the benchmark's input bytes do not change
// when the program's writer does.
func writeMTX(m *sparse.CSR[float64]) []byte {
	var b bytes.Buffer
	b.Grow(len(m.ColIdx) * 32)
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, len(m.ColIdx))
	var line []byte
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			line = line[:0]
			line = strconv.AppendInt(line, int64(i+1), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(m.ColIdx[k])+1, 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, m.Val[k], 'g', 17, 64)
			line = append(line, '\n')
			b.Write(line)
		}
	}
	return b.Bytes()
}

// programGoVersion reads the Go version a binary was built with.
func programGoVersion(path string) string {
	bi, err := buildinfo.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return bi.GoVersion
}

// hostWarmup keeps every CPU busy for d. The host parks idle vCPUs:
// two-thread work that starts after an idle second ran at half speed
// for its first 1.0–1.25 s (a spin loop, measured after 8 s idle; back
// to back it ran at full speed from the start). Cold starts follow a
// warm-up, so setup_s measures the program and not that wake-up.
func hostWarmup(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for time.Now().Before(deadline) {
				for k := 0; k < 1<<16; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			warmSink.Add(x)
		}()
	}
	wg.Wait()
}

// warmSink keeps the warm-up loop's result live.
var warmSink atomic.Uint64
