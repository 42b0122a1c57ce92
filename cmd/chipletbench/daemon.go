package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon builds ./cmd/chipletd from the checkout at root into
// root/.bench_build and returns the binary's path.
func buildDaemon(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "chipletd")
	build := func(flags ...string) ([]byte, error) {
		args := append(append([]string{"build"}, flags...), "-o", bin, "./cmd/chipletd")
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		return cmd.CombinedOutput()
	}
	out, err := build()
	if err != nil {
		// VCS stamping fails where git cannot describe the checkout; the
		// revision is only reported, so build without it.
		if _, err2 := build("-buildvcs=false"); err2 != nil {
			return "", fmt.Errorf("go build ./cmd/chipletd: %v\n%s", err, out)
		}
	}
	return bin, nil
}

// daemon is one running chipletd.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	revision string
	logDone  chan struct{} // closed once the daemon's log stream ends
	stopOnce sync.Once
}

// warmupSolve is the set-up request: a real solve, and on a grid no
// workload uses, so it leaves no cache entry or engine a workload could
// hit.
var warmupSolve = []byte(`{"placement":{"chiplets":4,"spacing_mm":1},"benchmark":"swaptions","freq_mhz":800,"cores":64,"grid_n":24}`)

// startDaemon execs chipletd with its production defaults, waits for the
// "listening" log record, checks GET /healthz and sends the warm-up
// request. It returns the set-up time: exec to the warm-up answer.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-log-format", "json")
	// Linux: the daemon dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start chipletd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(logs)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "listening" {
				addrc <- rec.Addr
				break
			}
		}
		// Keep draining: the daemon logs every request, and a full pipe
		// would block it.
		_, _ = io.Copy(io.Discard, logs)
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-d.logDone:
		d.stop()
		return nil, 0, fmt.Errorf("chipletd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("chipletd did not report its address within 30 s")
	}
	c := newClient(d.base)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	data, err := c.get(ctx, "/healthz")
	if err == nil {
		var h struct {
			Revision string `json:"revision"`
		}
		err = json.Unmarshal(data, &h)
		d.revision = h.Revision
	}
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("healthz: %w", err)
	}
	status, _, _, err := c.post(ctx, "/v1/thermal/solve", "warmup", warmupSolve)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up solve: %w", err)
	}
	return d, time.Since(t0), nil
}

// stop sends SIGTERM (chipletd drains and exits), kills the daemon if it
// has not exited within 15 s, and waits for it. Later calls do nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.logDone:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.logDone
		}
		_ = d.cmd.Wait()
	})
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
