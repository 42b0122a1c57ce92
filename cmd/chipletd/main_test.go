package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke is the end-to-end daemon check the CI script leans on: it
// builds the real binary, starts it on an ephemeral port with JSON logs,
// discovers the bound address from the "listening" log record, exercises a
// traced solve plus every observability endpoint, and verifies a clean
// SIGTERM drain.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test builds and runs the binary; skipped with -short")
	}

	bin := filepath.Join(t.TempDir(), "chipletd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Removed flags are flag errors, so a stale command line fails loudly
	// instead of starting a daemon that ignores the setting.
	out, err := exec.Command(bin, "-kernel-threads", "2").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -kernel-threads") {
		t.Fatalf("chipletd -kernel-threads 2: err %v, output %q; want a flag error (exit 2)", err, out)
	}

	// OTLP sink: the daemon exports its traces here; the SIGTERM drain must
	// flush whatever the batch timer has not yet shipped.
	var sinkMu sync.Mutex
	var sinkBodies []string
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces" {
			return
		}
		b, _ := io.ReadAll(r.Body)
		sinkMu.Lock()
		sinkBodies = append(sinkBodies, string(b))
		sinkMu.Unlock()
	}))
	defer sink.Close()

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-log-format", "json",
		"-slow-trace", "1ns", // everything lands in the slow ring too
		"-otlp-endpoint", sink.URL,
		"-trace-sample", "1",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// Every stderr line must be a JSON object (that's the -log-format json
	// contract); the "listening" record carries the bound address.
	addrCh := make(chan string, 1)
	logDone := make(chan []string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				continue
			}
			if rec["msg"] == "listening" {
				if a, ok := rec["addr"].(string); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
		logDone <- lines
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never logged a listening record")
	}
	base := "http://" + addr

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Traced solve: span tree inline, request ID echoed, and the inbound
	// W3C trace context adopted and echoed back.
	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := `{"placement": {"chiplets": 4, "s3_mm": 1}, "benchmark": "cholesky",
	          "freq_mhz": 533, "cores": 128, "grid_n": 8}`
	solveReq, err := http.NewRequest(http.MethodPost, base+"/v1/thermal/solve?trace=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	solveReq.Header.Set("Content-Type", "application/json")
	solveReq.Header.Set("traceparent", "00-"+remoteTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(solveReq)
	if err != nil {
		t.Fatal(err)
	}
	solveBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d: %s", resp.StatusCode, solveBytes)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("solve response missing X-Request-Id")
	}
	if tp := resp.Header.Get("Traceparent"); !strings.HasPrefix(tp, "00-"+remoteTrace+"-") {
		t.Errorf("solve response traceparent %q does not join the caller's trace", tp)
	}
	var solve struct {
		PeakC float64 `json:"peak_c"`
		Trace *struct {
			RequestID string `json:"request_id"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(solveBytes, &solve); err != nil {
		t.Fatalf("solve response: %v\n%s", err, solveBytes)
	}
	if solve.PeakC <= 0 {
		t.Errorf("peak_c = %g", solve.PeakC)
	}
	if solve.Trace == nil || solve.Trace.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("trace missing or id mismatch: %+v", solve.Trace)
	}
	for _, span := range []string{"cache.lookup", "pool.queue_wait", "thermal.cg", "power.leakage_loop"} {
		if !bytes.Contains(solveBytes, []byte(fmt.Sprintf("%q", span))) {
			t.Errorf("solve trace missing span %q", span)
		}
	}

	// Healthz: JSON with build info and uptime.
	code, hb := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var hz map[string]any
	if err := json.Unmarshal(hb, &hz); err != nil || hz["status"] != "ok" {
		t.Fatalf("healthz body: %s", hb)
	}
	for _, k := range []string{"version", "revision", "go_version", "uptime_seconds"} {
		if _, ok := hz[k]; !ok {
			t.Errorf("healthz missing %q: %s", k, hb)
		}
	}

	// Metrics: the new observability families are exposed.
	code, mb := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"chipletd_cg_iterations_bucket",
		"chipletd_leakage_iterations_bucket",
		"chipletd_stage_duration_seconds_bucket",
		"chipletd_build_info{",
		"chipletd_inflight_requests{",
	} {
		if !bytes.Contains(mb, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Flight recorder: the solve's trace is retrievable.
	code, db := get("/debug/solves")
	if code != http.StatusOK {
		t.Fatalf("debug/solves = %d", code)
	}
	var dbg struct {
		Recent []json.RawMessage `json:"recent"`
		Slow   []json.RawMessage `json:"slow"`
	}
	if err := json.Unmarshal(db, &dbg); err != nil {
		t.Fatalf("debug/solves body: %v", err)
	}
	if len(dbg.Recent) == 0 {
		t.Error("debug/solves recent is empty after a solve")
	}
	if len(dbg.Slow) == 0 {
		t.Error("debug/solves slow is empty despite -slow-trace 1ns")
	}

	// pprof stays off without -pprof.
	if code, _ := get("/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof should be 404 when disabled, got %d", code)
	}

	// Clean SIGTERM drain. The stderr scanner must reach EOF before
	// cmd.Wait (Wait closes the pipe and would race the final log lines).
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var lines []string
	select {
	case lines = <-logDone:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not close its log stream within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{`"msg":"draining"`, `"msg":"drained"`, `"clean":true`} {
		if !strings.Contains(joined, want) {
			t.Errorf("daemon logs missing %s:\n%s", want, joined)
		}
	}
	// Request logs are structured and carry the request id.
	if !strings.Contains(joined, `"msg":"request"`) || !strings.Contains(joined, `"request_id"`) {
		t.Errorf("daemon logs missing structured request record:\n%s", joined)
	}

	// The drain flushed the exporter queue: by the time the process has
	// exited, the sink must hold the solve's trace under the propagated
	// trace ID. Shutdown posts synchronously before exit, so a short bounded
	// wait is only slack for the sink handler to return.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sinkMu.Lock()
		all := strings.Join(sinkBodies, "\n")
		sinkMu.Unlock()
		if strings.Contains(all, remoteTrace) && strings.Contains(all, `"thermal_solve"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OTLP sink missing the drained solve trace; got %d exports:\n%.2000s", len(sinkBodies), all)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// freePort reserves an ephemeral 127.0.0.1 port and releases it for the
// daemon to claim. Sharded nodes must know each other's URLs before either
// binds, so the usual ":0 + listening record" discovery cannot work here.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestShardedSmoke is the two-node scale-out check the CI script leans on:
// two real daemons as mutual peers plus a standalone reference node. It
// asserts that both shards and the reference agree bit-for-bit on solve and
// search results, that the non-owner answered its memo miss from the owner
// (>= 1 peer-fetch hit in /metrics), and that /v1/batch coalesces across the
// sharded fleet.
func TestShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded smoke test builds and runs three daemons; skipped with -short")
	}

	bin := filepath.Join(t.TempDir(), "chipletd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	portA, portB, portC := freePort(t), freePort(t), freePort(t)
	urlA := fmt.Sprintf("http://127.0.0.1:%d", portA)
	urlB := fmt.Sprintf("http://127.0.0.1:%d", portB)
	urlC := fmt.Sprintf("http://127.0.0.1:%d", portC)

	var logMu sync.Mutex
	logs := map[string]*bytes.Buffer{}
	start := func(port int, extra ...string) {
		t.Helper()
		args := append([]string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-workers", "2", "-log-format", "json",
		}, extra...)
		cmd := exec.Command(bin, args...)
		buf := &bytes.Buffer{}
		logMu.Lock()
		logs[fmt.Sprintf("127.0.0.1:%d", port)] = buf
		logMu.Unlock()
		cmd.Stderr = &lockedWriter{mu: &logMu, w: buf}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
	}
	start(portA, "-self", urlA, "-peers", urlB, "-peer-timeout", "2s")
	start(portB, "-self", urlB, "-peers", urlA, "-peer-timeout", "2s")
	start(portC) // standalone reference: no peers, must agree anyway

	dumpLogs := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		var sb strings.Builder
		for addr, buf := range logs {
			fmt.Fprintf(&sb, "--- %s ---\n%s\n", addr, buf.String())
		}
		return sb.String()
	}
	waitReady := func(url string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became healthy\n%s", url, dumpLogs())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitReady(urlA)
	waitReady(urlB)
	waitReady(urlC)

	post := func(url, path, body string) []byte {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s%s: %v", url, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s%s = %d: %s\n%s", url, path, resp.StatusCode, b, dumpLogs())
		}
		return b
	}
	getJSON := func(url, path string, out any) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", url, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("GET %s%s: %v\n%s", url, path, err, b)
		}
	}

	// Warm node A, then learn from its shard view which node owns the
	// engine fingerprint every node derives from this workload.
	solveBody := `{"placement": {"chiplets": 4, "s3_mm": 1}, "benchmark": "cholesky",
	               "freq_mhz": 533, "cores": 128, "grid_n": 8}`
	post(urlA, "/v1/thermal/solve", solveBody)
	var shard struct {
		Enabled bool     `json:"enabled"`
		Nodes   []string `json:"nodes"`
		Engines []struct {
			FingerprintHash string `json:"fingerprint_hash"`
			Owner           string `json:"owner"`
		} `json:"engines"`
	}
	getJSON(urlA, "/debug/shard", &shard)
	if !shard.Enabled || len(shard.Nodes) != 2 || len(shard.Engines) != 1 {
		t.Fatalf("node A shard view = %+v, want 2-node ring with one engine", shard)
	}
	owner := shard.Engines[0].Owner
	other := urlA
	if owner == urlA {
		other = urlB
	}

	// Owner computes an operating point; the non-owner must then answer the
	// same point via peer fetch, bit-for-bit, as must the standalone node,
	// which computes it cold.
	vary := strings.Replace(solveBody, `"cores": 128`, `"cores": 256`, 1)
	type solveOut struct {
		PeakC        float64 `json:"peak_c"`
		TotalPowerW  float64 `json:"total_power_w"`
		CGIterations int     `json:"cg_iterations"`
	}
	var fromOwner, fromOther, fromRef solveOut
	mustJSON := func(b []byte, out any) {
		t.Helper()
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatal(err)
		}
	}
	mustJSON(post(owner, "/v1/thermal/solve", vary), &fromOwner)
	mustJSON(post(other, "/v1/thermal/solve", vary), &fromOther)
	mustJSON(post(urlC, "/v1/thermal/solve", vary), &fromRef)
	if fromOther != fromOwner || fromRef != fromOwner {
		t.Fatalf("sharded answers diverged: owner %+v, non-owner %+v, standalone %+v",
			fromOwner, fromOther, fromRef)
	}

	// Winner parity: the same organization search run on a shard and on the
	// standalone node must pick the identical winner.
	searchBody := `{"benchmark": "swaptions", "threshold_c": 85, "chiplet_counts": [4],
	                "interposer_min_mm": 30, "interposer_max_mm": 30, "starts": 1,
	                "thermal_grid_n": 8, "surrogate_margin_c": -1}`
	var searchShard, searchRef struct {
		Feasible bool            `json:"feasible"`
		Best     json.RawMessage `json:"best"`
	}
	mustJSON(post(other, "/v1/org/search", searchBody), &searchShard)
	mustJSON(post(urlC, "/v1/org/search", searchBody), &searchRef)
	if !searchShard.Feasible || !bytes.Equal(searchShard.Best, searchRef.Best) {
		t.Fatalf("search winner diverged:\nshard: %s\nref:   %s", searchShard.Best, searchRef.Best)
	}

	// A coalescing batch against the non-owner: two spacings on the same
	// half-millimeter canonical cell collapse to one computation.
	batchBody := `{"sweep": {"solve": ` + solveBody + `, "spacing_mm": [1.0, 1.1]}}`
	var batch struct {
		Total     int `json:"total"`
		Coalesced int `json:"coalesced"`
		Items     []struct {
			Status int `json:"status"`
		} `json:"items"`
	}
	mustJSON(post(other, "/v1/batch", batchBody), &batch)
	if batch.Total != 2 || batch.Coalesced != 1 {
		t.Fatalf("batch = %+v, want 2 items with 1 coalesced", batch)
	}
	for i, it := range batch.Items {
		if it.Status != http.StatusOK {
			t.Fatalf("batch item %d status = %d", i, it.Status)
		}
	}

	// The non-owner's metrics must prove the peer exchange actually ran.
	resp, err := http.Get(other + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	peerHits := 0.0
	for _, line := range strings.Split(string(mb), "\n") {
		if strings.HasPrefix(line, "chipletd_eval_peer_hits_total") {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &peerHits)
		}
	}
	if peerHits < 1 {
		t.Fatalf("non-owner chipletd_eval_peer_hits_total = %g, want >= 1\n%s", peerHits, dumpLogs())
	}
}

// lockedWriter serializes daemon stderr appends with the test's log reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestBuildLogger covers the format/level matrix and rejection of unknowns.
func TestBuildLogger(t *testing.T) {
	for _, ok := range []struct{ format, level string }{
		{"", ""}, {"text", "debug"}, {"json", "warn"}, {"JSON", "ERROR"},
	} {
		if _, err := buildLogger(ok.format, ok.level); err != nil {
			t.Errorf("buildLogger(%q, %q): %v", ok.format, ok.level, err)
		}
	}
	if _, err := buildLogger("xml", ""); err == nil {
		t.Error("buildLogger accepted format xml")
	}
	if _, err := buildLogger("", "loud"); err == nil {
		t.Error("buildLogger accepted level loud")
	}
}
