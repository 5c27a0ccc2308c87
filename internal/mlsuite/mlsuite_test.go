package mlsuite

import (
	"context"
	"math"
	"testing"

	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/edl"
	"privacyscope/internal/interp"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/sgx"
	"privacyscope/internal/symexec"
)

func TestModulesParseAndCheck(t *testing.T) {
	sources := map[string]string{
		"linreg":            LinRegC,
		"kmeans":            KmeansC,
		"recommender":       RecommenderC,
		"evil-linreg":       MaliciousLinRegC,
		"evil-kmeans":       MaliciousKmeansC,
		"fixed-recommender": FixedRecommenderC,
		"logreg":            LogRegC,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			f, err := minic.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := minic.NewChecker(minic.DefaultBuiltins).Check(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, src := range map[string]string{
		"linreg": LinRegEDL, "kmeans": KmeansEDL, "recommender": RecommenderEDL,
		"evil-linreg": MaliciousLinRegEDL, "evil-kmeans": MaliciousKmeansEDL,
		"fixed-recommender": FixedRecommenderEDL, "logreg": LogRegEDL,
	} {
		t.Run(name+"-edl", func(t *testing.T) {
			if _, err := edl.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTableVLoCShape(t *testing.T) {
	// Absolute LoC need not match the archived repos, but the sizes must
	// be in the paper's ballpark and preserve the ordering
	// Kmeans > LinearRegression > Recommender (Table V).
	locs := map[string]int{}
	for _, m := range Modules() {
		loc := CountLoC(m.C)
		locs[m.Name] = loc
		lo, hi := m.PaperLoC*6/10, m.PaperLoC*15/10
		if loc < lo || loc > hi {
			t.Errorf("%s LoC = %d, outside [%d, %d] (paper: %d)", m.Name, loc, lo, hi, m.PaperLoC)
		}
	}
	if !(locs["Kmeans"] > locs["LinearRegression"] && locs["LinearRegression"] > locs["Recommender"]) {
		t.Errorf("LoC ordering broken: %v", locs)
	}
}

func analyzeModule(t *testing.T, cSrc, edlSrc, ecall string) *core.Report {
	t.Helper()
	file, err := minic.Parse(cSrc)
	if err != nil {
		t.Fatal(err)
	}
	iface, err := edl.Parse(edlSrc)
	if err != nil {
		t.Fatal(err)
	}
	sig, ok := iface.ECall(ecall)
	if !ok {
		t.Fatalf("no ECALL %s", ecall)
	}
	report, err := detect.Run(context.Background(), detect.DefaultSet(), core.DefaultOptions(), ir.LowerMiniC(file), ecall, edl.ParamSpecs(sig, nil))
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestLinRegClean(t *testing.T) {
	report := analyzeModule(t, LinRegC, LinRegEDL, "enclave_train_linreg")
	if !report.Secure() {
		t.Fatalf("clean LinearRegression flagged: %s", report.Render())
	}
	if report.Secrets != 2*LinRegN {
		t.Errorf("secrets = %d, want %d", report.Secrets, 2*LinRegN)
	}
}

func TestLinRegMaliciousDetected(t *testing.T) {
	report := analyzeModule(t, MaliciousLinRegC, MaliciousLinRegEDL, "enclave_train_linreg_evil")
	exp := report.Explicit()
	if len(exp) != 1 {
		t.Fatalf("explicit findings = %+v", exp)
	}
	f := exp[0]
	if f.Where != "model[5]" || f.Secret != "xs[0]" {
		t.Errorf("finding = %+v", f)
	}
}

// TestCaseStudyRecommenderSixViolations reproduces §VI-D-1: analyzing the
// Recommender library's entry points finds exactly 6 nonreversibility
// violations — 4 explicit and 2 implicit — at the documented sinks.
func TestCaseStudyRecommenderSixViolations(t *testing.T) {
	type want struct {
		kind   core.LeakKind
		secret string
	}
	wants := map[string]want{
		"model[0]": {core.ExplicitLeak, "ratings[0]"},
		"model[3]": {core.ExplicitLeak, "ratings[2]"},
		"model[4]": {core.ExplicitLeak, "ratings[4]"},
		"model[6]": {core.ImplicitLeak, "ratings[5]"},
		"return":   {core.ImplicitLeak, "ratings[3]"},
	}
	total := 0
	var ocallLeaks int
	for _, ecall := range RecommenderECalls {
		report := analyzeModule(t, RecommenderC, RecommenderEDL, ecall)
		total += len(report.Findings)
		for _, f := range report.Findings {
			if f.Sink == core.SinkOCall {
				ocallLeaks++
				if f.Secret != "ratings[1]" {
					t.Errorf("OCALL leak secret = %s, want ratings[1]", f.Secret)
				}
				continue
			}
			w, ok := wants[f.Where]
			if !ok {
				t.Errorf("unexpected finding at %s: %+v", f.Where, f)
				continue
			}
			if f.Kind != w.kind || f.Secret != w.secret {
				t.Errorf("finding at %s = %v/%s, want %v/%s", f.Where, f.Kind, f.Secret, w.kind, w.secret)
			}
		}
	}
	if ocallLeaks != 1 {
		t.Errorf("OCALL leaks = %d, want 1 (the debug printf)", ocallLeaks)
	}
	if total != 6 {
		t.Errorf("total violations = %d, want 6 (as in the paper's case study)", total)
	}
}

func TestFixedRecommenderClean(t *testing.T) {
	for _, ecall := range []string{"recommender_train", "recommender_cold_start"} {
		report := analyzeModule(t, FixedRecommenderC, FixedRecommenderEDL, ecall)
		if !report.Secure() {
			t.Errorf("fixed recommender %s flagged:\n%s", ecall, report.Render())
		}
	}
}

// TestCaseStudyKmeansInjection reproduces §VI-D-2: the injected explicit
// and implicit leaks in the malicious Kmeans are both detected, at exactly
// the injected sinks, with the right secrets; the clean module has no
// findings at those sinks.
func TestCaseStudyKmeansInjection(t *testing.T) {
	evil := analyzeModule(t, MaliciousKmeansC, MaliciousKmeansEDL, "enclave_train_kmeans")

	var explicitAt4, implicitAt5 *core.Finding
	for i := range evil.Findings {
		f := &evil.Findings[i]
		switch f.Where {
		case "centroids[4]":
			if f.Kind == core.ExplicitLeak {
				explicitAt4 = f
			}
		case "centroids[5]":
			if f.Kind == core.ImplicitLeak {
				implicitAt5 = f
			}
		}
	}
	if explicitAt4 == nil {
		t.Fatalf("injected explicit leak not found:\n%s", evil.Render())
	}
	if explicitAt4.Secret != "points[0]" {
		t.Errorf("explicit secret = %s, want points[0]", explicitAt4.Secret)
	}
	// The obfuscation 4·x+3 must be inverted.
	if explicitAt4.Inversion == nil || explicitAt4.Inversion.Scale != 4 || explicitAt4.Inversion.Offset != 3 {
		t.Errorf("inversion = %+v", explicitAt4.Inversion)
	}
	if implicitAt5 == nil {
		t.Fatalf("injected implicit leak not found:\n%s", evil.Render())
	}
	if implicitAt5.Secret != "points[7]" {
		t.Errorf("implicit secret = %s, want points[7]", implicitAt5.Secret)
	}

	// The clean module must not report anything at the injected sinks.
	clean := analyzeModule(t, KmeansC, KmeansEDL, "enclave_train_kmeans")
	for _, f := range clean.Findings {
		if f.Where == "centroids[4]" || f.Where == "centroids[5]" {
			t.Errorf("clean kmeans finding at injected sink: %+v", f)
		}
	}
}

func TestKmeansSingletonClusterPathsAreReported(t *testing.T) {
	// Design note in kmeans_c.go: paths with singleton/empty clusters
	// emit raw points as centroids and ARE nonreversibility violations.
	report := analyzeModule(t, KmeansC, KmeansEDL, "enclave_train_kmeans")
	if report.Secure() {
		t.Skip("engine found no singleton-cluster paths; acceptable under pruning")
	}
	for _, f := range report.Findings {
		if f.Kind != core.ExplicitLeak && f.Kind != core.ImplicitLeak {
			t.Errorf("unexpected finding kind: %+v", f)
		}
	}
}

func TestGoldenLinReg(t *testing.T) {
	xs, ys := LinearData(7, 32, 2.0, 3.0, 0.1)
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-2.0) > 0.2 || math.Abs(m.Slope-3.0) > 0.1 {
		t.Errorf("fit = %+v", m)
	}
	if m.Predict(0) != m.Intercept {
		t.Error("Predict(0) != intercept")
	}
	if _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("short input must fail")
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance must fail")
	}
}

func TestGoldenKMeans(t *testing.T) {
	points := ClusteredPoints(3, 12, 2, 2)
	cents, labels, err := KMeans(points, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 2 || len(labels) != 12 {
		t.Fatalf("cents/labels = %d/%d", len(cents), len(labels))
	}
	// Points generated around centers 0 and 10 must separate.
	for i, p := range points {
		other := 1 - labels[i]
		if dist2(p, cents[labels[i]]) > dist2(p, cents[other]) {
			t.Errorf("point %d not assigned to nearest centroid", i)
		}
	}
	if _, _, err := KMeans(points[:1], 2, 1); err == nil {
		t.Error("k > n must fail")
	}
	if _, _, err := KMeans([][]float64{{1, 2}, {3}}, 1, 1); err == nil {
		t.Error("ragged input must fail")
	}
}

func TestGoldenCF(t *testing.T) {
	ratings := Ratings(11, 64, 2)
	m, err := FitCF(ratings, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Item 1 carries a +0.5 bias by construction.
	if m.ItemOffsets[1] <= m.ItemOffsets[0] {
		t.Errorf("offsets = %v, want item1 > item0", m.ItemOffsets)
	}
	p0, err := m.Predict(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p0-(m.GlobalMean+m.ItemOffsets[0])) > 1e-12 {
		t.Error("Predict formula wrong")
	}
	if _, err := m.Predict(5); err == nil {
		t.Error("out-of-range item must fail")
	}
	if _, err := FitCF(nil, 2); err == nil {
		t.Error("empty ratings must fail")
	}
}

// TestDifferentialLinRegEnclaveVsGolden runs the MiniC port inside the SGX
// simulator and compares the trained model against the Go reference on the
// same data.
func TestDifferentialLinRegEnclaveVsGolden(t *testing.T) {
	xs, ys := LinearData(5, LinRegN, 1.5, -2.0, 0.05)
	p := sgx.NewPlatform([]byte("mltest"))
	enc, err := p.LoadEnclave(LinRegC, LinRegEDL)
	if err != nil {
		t.Fatal(err)
	}
	toCells := func(vals []float64) []interp.Value {
		out := make([]interp.Value, len(vals))
		for i, v := range vals {
			out[i] = interp.FloatValue(v)
		}
		return out
	}
	res, err := enc.ECall("enclave_train_linreg", []sgx.Arg{
		sgx.BufArg(toCells(xs)),
		sgx.BufArg(toCells(ys)),
		sgx.OutArg(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	model := res.Outs["model"]
	if math.Abs(model[0].Float()-golden.Intercept) > 1e-9 {
		t.Errorf("intercept: enclave %g vs golden %g", model[0].Float(), golden.Intercept)
	}
	if math.Abs(model[1].Float()-golden.Slope) > 1e-9 {
		t.Errorf("slope: enclave %g vs golden %g", model[1].Float(), golden.Slope)
	}
	if math.Abs(model[2].Float()-golden.SSE) > 1e-9 {
		t.Errorf("sse: enclave %g vs golden %g", model[2].Float(), golden.SSE)
	}
}

// TestDifferentialKmeansEnclaveVsGolden does the same for Kmeans.
func TestDifferentialKmeansEnclaveVsGolden(t *testing.T) {
	points := ClusteredPoints(9, KmeansN, KmeansD, KmeansK)
	flat := make([]interp.Value, 0, KmeansN*KmeansD)
	for _, pt := range points {
		for _, v := range pt {
			flat = append(flat, interp.FloatValue(v))
		}
	}
	p := sgx.NewPlatform([]byte("mltest"))
	enc, err := p.LoadEnclave(KmeansC, KmeansEDL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.ECall("enclave_train_kmeans", []sgx.Arg{
		sgx.BufArg(flat),
		sgx.OutArg(KmeansK * KmeansD),
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, _, err := KMeans(points, KmeansK, KmeansIters)
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Outs["centroids"]
	for k := 0; k < KmeansK; k++ {
		for j := 0; j < KmeansD; j++ {
			got := cells[k*KmeansD+j].Float()
			want := golden[k][j]
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("centroid[%d][%d]: enclave %g vs golden %g", k, j, got, want)
			}
		}
	}
}

// TestDifferentialRecommenderEnclaveVsGolden compares the legitimate model
// slots (the buggy slots are the case study's subject, not the oracle's).
func TestDifferentialRecommenderEnclaveVsGolden(t *testing.T) {
	ratings := Ratings(13, RecommenderN, 2)
	cells := make([]interp.Value, len(ratings))
	for i, v := range ratings {
		cells[i] = interp.FloatValue(v)
	}
	p := sgx.NewPlatform([]byte("mltest"))
	enc, err := p.LoadEnclave(RecommenderC, RecommenderEDL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.ECall("recommender_train", []sgx.Arg{
		sgx.BufArg(cells),
		sgx.OutArg(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := FitCF(ratings, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := res.Outs["model"]
	if math.Abs(model[1].Float()-golden.GlobalMean) > 1e-9 {
		t.Errorf("global mean: %g vs %g", model[1].Float(), golden.GlobalMean)
	}
	if math.Abs(model[2].Float()-golden.ItemOffsets[0]) > 1e-9 {
		t.Errorf("item0 offset: %g vs %g", model[2].Float(), golden.ItemOffsets[0])
	}
	if math.Abs(model[5].Float()-golden.ItemOffsets[1]) > 1e-9 {
		t.Errorf("item1 offset: %g vs %g", model[5].Float(), golden.ItemOffsets[1])
	}
	// The debug printf (violation #2) is observable in the OCALL stream.
	if len(res.Printed) != 1 {
		t.Errorf("printed = %v", res.Printed)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	r := NewRand(0)
	if r.Uint64() == 0 {
		t.Error("zero seed must still produce output")
	}
	v := NewRand(1).Range(2, 5)
	if v < 2 || v >= 5 {
		t.Errorf("Range out of bounds: %g", v)
	}
}

func TestWorkloadShapes(t *testing.T) {
	xs, ys := LinearData(1, 16, 0, 1, 0)
	if len(xs) != 16 || len(ys) != 16 {
		t.Error("LinearData size wrong")
	}
	for i := range xs {
		if ys[i] != xs[i] {
			t.Error("noise-free y must equal x for slope 1")
		}
	}
	pts := ClusteredPoints(1, 6, 3, 2)
	if len(pts) != 6 || len(pts[0]) != 3 {
		t.Error("ClusteredPoints shape wrong")
	}
	rs := Ratings(1, 10, 2)
	for _, v := range rs {
		if v < 1 || v > 5 {
			t.Errorf("rating %g out of [1,5]", v)
		}
	}
}

func TestParamSpecsFromEDLForModules(t *testing.T) {
	for _, m := range Modules() {
		iface, err := edl.Parse(m.EDL)
		if err != nil {
			t.Fatal(err)
		}
		for _, ecall := range m.ECalls {
			sig, ok := iface.ECall(ecall)
			if !ok {
				t.Fatalf("%s: no ECALL %s", m.Name, ecall)
			}
			specs := edl.ParamSpecs(sig, nil)
			var hasSecret bool
			for _, s := range specs {
				if s.Class == symexec.ParamSecret || s.Class == symexec.ParamInOut {
					hasSecret = true
				}
			}
			if !hasSecret {
				t.Errorf("%s/%s: no secret param derived", m.Name, ecall)
			}
		}
	}
}

func TestLogRegExtensionCleanAndDifferential(t *testing.T) {
	// Static: the trained model aggregates everything — secure.
	report := analyzeModule(t, LogRegC, LogRegEDL, "enclave_train_logreg")
	if !report.Secure() {
		t.Fatalf("logreg flagged:\n%s", report.Render())
	}
	if report.Secrets != 2*LogRegN {
		t.Errorf("secrets = %d, want %d", report.Secrets, 2*LogRegN)
	}

	// Concrete: the enclave run matches the Go reference.
	xs := make([]float64, LogRegN)
	ys := make([]float64, LogRegN)
	rng := NewRand(31)
	for i := range xs {
		xs[i] = rng.Range(-2, 2)
		if xs[i] > 0 {
			ys[i] = 1
		}
	}
	toCells := func(vals []float64) []interp.Value {
		out := make([]interp.Value, len(vals))
		for i, v := range vals {
			out[i] = interp.FloatValue(v)
		}
		return out
	}
	p := sgx.NewPlatform([]byte("logreg"))
	enc, err := p.LoadEnclave(LogRegC, LogRegEDL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := enc.ECall("enclave_train_logreg", []sgx.Arg{
		sgx.BufArg(toCells(xs)), sgx.BufArg(toCells(ys)), sgx.OutArg(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := FitLogReg(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	model := res.Outs["model"]
	if math.Abs(model[0].Float()-golden.Weight) > 1e-9 {
		t.Errorf("weight: enclave %g vs golden %g", model[0].Float(), golden.Weight)
	}
	if math.Abs(model[1].Float()-golden.Bias) > 1e-9 {
		t.Errorf("bias: enclave %g vs golden %g", model[1].Float(), golden.Bias)
	}
	// The classifier separates the training data reasonably.
	correct := 0
	for i := range xs {
		p := golden.Predict(xs[i])
		if (p > 0.5) == (ys[i] == 1) {
			correct++
		}
	}
	if correct < LogRegN/2 {
		t.Errorf("classifier fits %d/%d", correct, LogRegN)
	}
}

func TestFitLogRegErrors(t *testing.T) {
	if _, err := FitLogReg(nil, nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := FitLogReg([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
}
