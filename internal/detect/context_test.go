package detect

import (
	"context"
	"testing"

	"privacyscope/internal/core"
	"privacyscope/internal/edl"
	"privacyscope/internal/minic"
	"privacyscope/internal/mlsuite"
	"privacyscope/internal/obs"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/symexec"
	"privacyscope/internal/taint"
)

// freshPCDiffTaint is pcDiffTaint without the per-condition and
// per-conjunct memos: every call hashes both conditions' conjuncts and
// re-derives their tags.
func freshPCDiffTaint(o obs.Observer, a, b *solver.PathCondition) (taint.Tag, bool) {
	inA := make(map[string]sym.Expr)
	for _, c := range a.Conjuncts() {
		inA[sym.Key(c)] = c
	}
	inB := make(map[string]sym.Expr)
	for _, c := range b.Conjuncts() {
		inB[sym.Key(c)] = c
	}
	var tags []taint.Tag
	seen := make(map[taint.Tag]bool)
	collect := func(c sym.Expr) {
		for _, tg := range sym.SecretTags(c) {
			if !seen[tg] {
				seen[tg] = true
				tags = append(tags, tg)
			}
		}
	}
	diff := false
	for k, c := range inA {
		if _, ok := inB[k]; !ok {
			diff = true
			collect(c)
		}
	}
	for k, c := range inB {
		if _, ok := inA[k]; !ok {
			diff = true
			collect(c)
		}
	}
	if !diff {
		return 0, false
	}
	return taint.FromTagsObserved(o, tags).Tag()
}

// kmeansPCs explores the ECALL fn of the module and returns the result and
// the path condition of every path and OCALL.
func kmeansPCs(t *testing.T, c, edlSrc, fn string) (*symexec.Result, []*solver.PathCondition) {
	t.Helper()
	file, err := minic.Parse(c)
	if err != nil {
		t.Fatal(err)
	}
	iface, err := edl.Parse(edlSrc)
	if err != nil {
		t.Fatal(err)
	}
	sig, ok := iface.ECall(fn)
	if !ok {
		t.Fatalf("no ECALL %s", fn)
	}
	res, err := symexec.New(file, core.DefaultOptions().Engine).AnalyzeFunction(context.Background(), fn, edl.ParamSpecs(sig, nil))
	if err != nil {
		t.Fatal(err)
	}
	var pcs []*solver.PathCondition
	for _, p := range res.Paths {
		pcs = append(pcs, p.PC)
		for _, oc := range p.Ocalls {
			pcs = append(pcs, oc.PC)
		}
	}
	if len(pcs) < 8 {
		t.Fatalf("%d path conditions; the comparison needs sibling paths", len(pcs))
	}
	return res, pcs
}

// TestPCDiffTaintAllocatesNothingPerPair pins the merge: once every path
// condition of the trojaned Kmeans is keyed, comparing all pairs again
// allocates nothing.
func TestPCDiffTaintAllocatesNothingPerPair(t *testing.T) {
	res, pcs := kmeansPCs(t, mlsuite.MaliciousKmeansC, mlsuite.MaliciousKmeansEDL, "enclave_train_kmeans")
	rc := &Context{Res: res, Obs: obs.NewMetrics()}
	sweep := func() {
		for _, a := range pcs {
			for _, b := range pcs {
				rc.pcDiffTaint(a, b)
			}
		}
	}
	sweep()
	if got := testing.AllocsPerRun(5, sweep); got != 0 {
		t.Errorf("a sweep over %d keyed path conditions allocates %.1f times", len(pcs), got)
	}
}

// TestPCDiffTaintMemoMatchesFresh compares the memoized pcDiffTaint with a
// fresh computation on every ordered pair of explored path conditions of
// the Kmeans modules (Table V and the trojaned variant), twice over so the
// second sweep reads only memoized state. The verdicts and the taint
// counters they report must agree.
func TestPCDiffTaintMemoMatchesFresh(t *testing.T) {
	singles := 0
	for _, m := range []struct{ name, c, edl, fn string }{
		{"Kmeans", mlsuite.KmeansC, mlsuite.KmeansEDL, "enclave_train_kmeans"},
		{"MaliciousKmeans", mlsuite.MaliciousKmeansC, mlsuite.MaliciousKmeansEDL, "enclave_train_kmeans"},
	} {
		t.Run(m.name, func(t *testing.T) {
			res, pcs := kmeansPCs(t, m.c, m.edl, m.fn)
			memoObs, freshObs := obs.NewMetrics(), obs.NewMetrics()
			rc := &Context{Res: res, Obs: memoObs}
			for sweep := 0; sweep < 2; sweep++ {
				for i, a := range pcs {
					for j, b := range pcs {
						gotTag, gotSingle := rc.pcDiffTaint(a, b)
						wantTag, wantSingle := freshPCDiffTaint(freshObs, a, b)
						if gotTag != wantTag || gotSingle != wantSingle {
							t.Fatalf("paths %d, %d: memoized (%d, %v), fresh (%d, %v)\n π_a = %s\n π_b = %s",
								i, j, gotTag, gotSingle, wantTag, wantSingle, a, b)
						}
						if gotSingle {
							singles++
						}
					}
				}
			}
			for _, name := range []string{"taint.joins", "taint.top_saturations"} {
				if got, want := memoObs.Counter(name), freshObs.Counter(name); got != want {
					t.Errorf("%s = %d memoized, %d fresh", name, got, want)
				}
			}
		})
	}
	if singles == 0 {
		t.Error("no pair differs in a single secret; the comparison proves little")
	}
}
