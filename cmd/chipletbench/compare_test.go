package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := bound{Name: "cold_p50_ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "items_per_s", Better: "higher", Bound: 0.10}
	steady := summarize("ms", []float64{98, 99, 100, 101, 102}) // spread 3%
	noisy := summarize("ms", []float64{70, 85, 100, 115, 130})  // spread 30%
	cases := []struct {
		name      string
		prev, cur *summary
		b         bound
		want      string
	}{
		{"same", steady, summarize("ms", []float64{99, 100, 100, 101, 102}), lower, verdictWithin},
		{"slower within bound", steady, summarize("ms", []float64{105, 106, 107, 108, 109}), lower, verdictWithin},
		{"slower past bound", steady, summarize("ms", []float64{115, 116, 117, 118, 119}), lower, verdictWorse},
		{"faster past the spread", steady, summarize("ms", []float64{90, 91, 92, 93, 94}), lower, verdictBetter},
		{"throughput down past bound", summarize("1/s", []float64{98, 99, 100, 101, 102}),
			summarize("1/s", []float64{80, 81, 82, 83, 84}), higher, verdictWorse},
		{"throughput up", summarize("1/s", []float64{98, 99, 100, 101, 102}),
			summarize("1/s", []float64{110, 111, 112, 113, 114}), higher, verdictBetter},
		{"noisy, overlapping", noisy, summarize("ms", []float64{60, 75, 90, 105, 120}), lower, verdictUnresolved},
		{"noisy, every run faster", noisy, summarize("ms", []float64{50, 55, 60, 65, 69}), lower, verdictBetter},
	}
	for _, tc := range cases {
		if got := verdict(tc.prev, tc.cur, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// synthLedger builds a one-workload ledger with cold_p50_ms values and a
// digest for seed 1.
func synthLedger(digest string, coldMS ...float64) *ledger {
	return &ledger{NumCPU: 2, Runs: len(coldMS), Workloads: map[string]*workloadLedger{
		"solve": {
			Digests: map[string]string{"1": digest},
			Metrics: map[string]*summary{
				"cold_p50_ms":  summarize("ms", coldMS),
				"thermal.sims": summarize("count", []float64{40, 40, 40, 40, 40}),
			},
		},
	}}
}

func TestCompareLedgers(t *testing.T) {
	bounds := map[string]bound{"cold_p50_ms": {Name: "cold_p50_ms", Better: "lower", Bound: 0.10}}
	prev := synthLedger("aaaa", 98, 99, 100, 101, 102)
	cases := []struct {
		name     string
		cur      *ledger
		failures int
		verdict  string
	}{
		{"unchanged", synthLedger("aaaa", 99, 100, 100, 101, 101), 0, verdictWithin},
		{"regression", synthLedger("aaaa", 120, 121, 122, 123, 124), 1, verdictWorse},
		{"changed answers", synthLedger("bbbb", 99, 100, 100, 101, 101), 1, verdictWithin},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if n := compareLedgers(&out, prev, tc.cur, bounds); n != tc.failures {
			t.Errorf("%s: %d failures, want %d\n%s", tc.name, n, tc.failures, out.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q line\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	l := synthLedger("aaaa", 1, 2, 3, 4, 5)
	if err := writeLedger(path, l); err != nil {
		t.Fatal(err)
	}
	back, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n := compareLedgers(&out, l, back, nil); n != 0 {
		t.Errorf("a ledger differs from itself:\n%s", out.String())
	}
}
