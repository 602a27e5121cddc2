package cpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/trace"
	"dcg/internal/usagetrace"
	"dcg/internal/workload"
)

// geometryGolden is one window-geometry case's expected outcome: the full
// core statistics and the SHA-256 of the captured usage trace (usage and
// latchvalue channels, every cycle's usage vector and GRANT event).
type geometryGolden struct {
	Stats       cpu.Stats `json:"stats"`
	TraceSHA256 string    `json:"trace_sha256"`
}

// geometryGoldenPath holds the expected values. They were produced by the
// full-window-scan issue stage the bitmask select replaced, so this test
// proves the two select identical instructions at every window size —
// including a window smaller than one mask word (8), partial last words
// (72, 200) and the default exact two words (128) — both unthrottled and
// under a narrowed issue width with disabled units and one D-port.
const geometryGoldenPath = "testdata/window_geometry.json"

// geometryCase is one window size, benchmark and throttle combination.
type geometryCase struct {
	window int
	bench  string
	narrow bool
}

func (gc geometryCase) name() string {
	thr := "full"
	if gc.narrow {
		thr = "narrow"
	}
	return fmt.Sprintf("w%d/%s/%s", gc.window, gc.bench, thr)
}

// geometryCases enumerates the cases in a stable order.
func geometryCases() []geometryCase {
	var cases []geometryCase
	for _, w := range []int{8, 72, 128, 200} {
		for _, bench := range []string{"gzip", "mcf", "swim"} {
			for _, narrow := range []bool{false, true} {
				cases = append(cases, geometryCase{w, bench, narrow})
			}
		}
	}
	return cases
}

// runGeometryCase warms and captures one case: 20 000 warm-up and
// 20 000 measured instructions of the benchmark on the Table 1 machine
// with the case's window size.
func runGeometryCase(t *testing.T, gc geometryCase) geometryGolden {
	t.Helper()
	bench := gc.bench
	cfg := config.Default()
	cfg.WindowSize = gc.window
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cfg, trace.NewLimitSource(gen, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	if gc.narrow {
		c.SetThrottle(cpu.NewFixedThrottle(cpu.FullLimits(4, 1, 3, 1, 2, 1)))
	}
	rec, err := usagetrace.NewRecorder(bench, cfg.BackEndLatchStages(), usagetrace.ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(rec)
	c.SetIssueListener(rec)
	if err := c.Warm(trace.NewLimitSource(gen, 20_000), ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := tr.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return geometryGolden{Stats: *c.Stats(), TraceSHA256: hex.EncodeToString(h.Sum(nil))}
}

// TestWindowGeometryGoldens runs every case and compares it with the
// committed goldens. On a mismatch the computed value is logged as JSON.
func TestWindowGeometryGoldens(t *testing.T) {
	raw, err := os.ReadFile(geometryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]geometryGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := geometryCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d cases, want %d", geometryGoldenPath, len(want), len(cases))
	}
	for _, gc := range cases {
		name := gc.name()
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("no golden for %s", name)
			}
			got := runGeometryCase(t, gc)
			if !reflect.DeepEqual(got, w) {
				js, _ := json.Marshal(got)
				t.Errorf("%s differs from the golden; got %s", name, js)
			}
		})
	}
}
