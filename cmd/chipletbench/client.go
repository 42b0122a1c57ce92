package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxConns bounds the harness's connections to the daemon: the load comes
// from one client process with at most two connections, as many as a
// 2-CPU host's chipletd runs pool workers.
const maxConns = 2

// client talks to one chipletd over at most maxConns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path under request ID id and reads the whole answer.
// done is when the last byte arrived; callers time requests up to it.
func (c *client) post(ctx context.Context, path, id string, body []byte) (status int, data []byte, done time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, time.Now(), err
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, err
}

// traceFetchPolls bounds the wait for a trace to reach the flight
// recorder: with a doubling backoff from 1 ms, 9 polls wait at most ~0.5 s.
const traceFetchPolls = 9

// fetchTrace returns request id's trace from GET /debug/solves. The daemon
// records a trace only after it has written the response, so a client that
// asks right after reading the answer can beat it there; poll with a
// bounded backoff.
func (c *client) fetchTrace(ctx context.Context, id string) (*traceDoc, error) {
	wait := time.Millisecond
	for poll := 0; poll < traceFetchPolls; poll++ {
		data, err := c.get(ctx, "/debug/solves")
		if err != nil {
			return nil, err
		}
		var dump struct {
			Recent []*traceDoc `json:"recent"`
		}
		if err := json.Unmarshal(data, &dump); err != nil {
			return nil, fmt.Errorf("decode /debug/solves: %w", err)
		}
		for _, tr := range dump.Recent {
			if tr.RequestID == id {
				return tr, nil
			}
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		wait *= 2
	}
	return nil, fmt.Errorf("trace %s not in /debug/solves after %d polls", id, traceFetchPolls)
}

// promSnap is one scrape of /metrics: series (name plus its label set, as
// printed) to value.
type promSnap map[string]float64

func (c *client) scrape(ctx context.Context) (promSnap, error) {
	data, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(data))
}

// parseProm reads the Prometheus text exposition format.
func parseProm(r io.Reader) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// total sums series: one printed series, or every series of a metric name.
func (s promSnap) total(series string) float64 {
	t := 0.0
	for k, v := range s {
		if k == series || strings.HasPrefix(k, series+"{") {
			t += v
		}
	}
	return t
}

// delta returns how much series moved between two scrapes.
func delta(from, to promSnap, series string) float64 { return to.total(series) - from.total(series) }
