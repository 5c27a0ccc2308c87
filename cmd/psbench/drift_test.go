package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON is the drift gate: BENCHMARK.json
// declares exactly the registry's workloads (with their reasons) and
// metrics (names, units, directions), in both directions and in order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var gotW, wantW [][2]string
	for _, w := range b.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.Name, w.Why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads\n%q\nregistry\n%q", gotW, wantW)
	}
	var gotE []metricDef
	for _, m := range b.EndToEnd {
		gotE = append(gotE, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > b.EndToEnd[0].Bound {
			t.Errorf("%s: bound %g exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nregistry\n%v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nregistry\n%v", b.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(b.Paths, []string{"cmd/psbench"}) {
		t.Errorf("paths = %v, want [cmd/psbench]", b.Paths)
	}
}

func TestListPrintsRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, nil, &out, &out); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.Name) {
			t.Errorf("-list omits workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("-list omits metric %s", m.Name)
		}
	}
}
