package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// plantedMarkers counts the leaking sinks a generated source plants.
func plantedMarkers(c string) int { return strings.Count(c, "/* planted */") }

// TestGeneratorAnswersFromTemplates derives every generated module's
// expected outcome from its source text — one finding per planted sink,
// "findings" exactly when there is one — and checks each template's entry
// in expected.json against the sinks one instance of it plants. No
// analysis runs.
func TestGeneratorAnswersFromTemplates(t *testing.T) {
	or, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		g := newGen(seed, 9, or)
		for _, kind := range smallKinds {
			checkTemplate(t, or, g.small(kind, 0))
		}
		checkTemplate(t, or, g.ladder(6, 4))
		checkTemplate(t, or, g.loop(5))
		_, es := g.chain(5, 3)
		for _, e := range es {
			checkTemplate(t, or, e)
		}
		mods := append(g.smallModules("gen", 15), g.explosionModules()...)
		for _, m := range mods {
			n := plantedMarkers(m.C)
			want := "secure"
			if n > 0 {
				want = "findings"
			}
			if m.Want.Findings == nil || *m.Want.Findings != n || m.Want.Verdict != want {
				t.Fatalf("seed %d: %s expects %s/%v, its source plants %d", seed, m.Name, m.Want.Verdict, m.Want.Findings, n)
			}
		}
	}
}

func checkTemplate(t *testing.T, or *oracle, e ecall) {
	t.Helper()
	want, ok := or.Templates[e.tmpl]
	if !ok {
		t.Fatalf("expected.json has no answer for template %s", e.tmpl)
	}
	if got := plantedMarkers(e.c); got != want {
		t.Fatalf("template %s plants %d sinks, expected.json says %d:\n%s", e.tmpl, got, want, e.c)
	}
}

// inputs renders everything a workload's set-up generates from its seed:
// the module sources and, for daemon-mix, a request schedule with the
// bodies it would send.
func inputs(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	e := &env{root: "../..", seed: seed, work: t.TempDir()}
	var buf bytes.Buffer
	dump := func(mods []module) {
		for _, m := range mods {
			fmt.Fprintf(&buf, "%s\x00%s\x00%s\x00%s\x00", m.Name, m.C, m.EDL, m.XML)
		}
	}
	if name == "daemon-mix" {
		r, err := daemonInputs(e)
		if err != nil {
			t.Fatal(err)
		}
		dump(r.hot)
		for _, q := range r.schedule(200 * time.Millisecond) {
			body, _, err := r.payload(q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%d\x00%s\x00", q.due, body)
		}
		return buf.Bytes()
	}
	r, err := setups[name](e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	dump(r.modules())
	return buf.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputs(t, w.Name, 7), inputs(t, w.Name, 7), inputs(t, w.Name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated identical inputs", w.Name)
		}
	}
}
