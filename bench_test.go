package privacyscope_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times differ from Table V (the substrate is a Go simulator, not
// the authors' Clang/NUC testbed); the shape assertions (who is slowest,
// which analysis catches what) live in the unit tests.

import (
	"context"
	"testing"

	"privacyscope"
	"privacyscope/internal/baseline"
	"privacyscope/internal/bench"
	"privacyscope/internal/core"
	"privacyscope/internal/detect"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/mlsuite"
	"privacyscope/internal/priml"
	"privacyscope/internal/symexec"
	"privacyscope/internal/taint"
)

// runDetect analyzes one entry point on the production path, detect.Run,
// with the default detector set.
func runDetect(opts core.Options, file *minic.File, fn string, params []symexec.ParamSpec) (*core.Report, error) {
	return detect.Run(context.Background(), detect.DefaultSet(), opts, ir.LowerMiniC(file), fn, params)
}

// BenchmarkFig1TaintLatticeJoin measures the semi-lattice join operation
// (Fig. 1), the innermost primitive of the taint policy.
func BenchmarkFig1TaintLatticeJoin(b *testing.B) {
	labels := []taint.Label{taint.Bottom(), taint.Single(1), taint.Single(2), taint.Top()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, x := range labels {
			for _, y := range labels {
				_ = x.Join(y)
			}
		}
	}
}

// BenchmarkFig2TaintPropagation measures the propagation policy of Fig. 2
// and Table I (P_const/P_unop/P_binop/P_cond).
func BenchmarkFig2TaintPropagation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var alloc taint.Allocator
		p := taint.NewPolicy(&alloc)
		t1 := p.GetSecret()
		t2 := p.GetSecret()
		_ = p.Const()
		_ = p.Unop(t1)
		_ = p.Assign(t2)
		_ = p.Binop(t1, t2)
		_ = p.Cond(t1, taint.Bottom())
	}
}

func benchPRIML(b *testing.B, src string) {
	prog, err := priml.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priml.NewAnalyzer(priml.DefaultOptions()).Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIExplicit measures the Table II simulation (Example 1).
func BenchmarkTableIIExplicit(b *testing.B) { benchPRIML(b, bench.Example1PRIML) }

// BenchmarkTableIIIImplicit measures the Table III simulation (Example 2).
func BenchmarkTableIIIImplicit(b *testing.B) { benchPRIML(b, bench.Example2PRIML) }

// BenchmarkTableIVListing1 measures the symbolic exploration of Listing 1
// (Table IV), tracing included.
func BenchmarkTableIVListing1(b *testing.B) {
	file := minic.MustParse(bench.Listing1C)
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := symexec.DefaultOptions()
		opts.TrackTrace = true
		if _, err := symexec.New(file, opts).AnalyzeFunction(context.Background(), "enclave_process_data", params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBox1Report measures the full checker on Listing 1 including the
// concrete witness replay (the Box 1 artifact).
func BenchmarkBox1Report(b *testing.B) {
	file := minic.MustParse(bench.Listing1C)
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report, err := runDetect(core.DefaultOptions(), file, "enclave_process_data", params)
		if err != nil {
			b.Fatal(err)
		}
		_ = report.Render()
	}
}

func benchModule(b *testing.B, name string) {
	var mod mlsuite.Module
	for _, m := range mlsuite.Modules() {
		if m.Name == name {
			mod = m
		}
	}
	if mod.Name == "" {
		b.Fatalf("no module %s", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := privacyscope.AnalyzeEnclave(mod.C, mod.EDL)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep.TotalFindings()
	}
}

// BenchmarkTableVLinearRegression measures the Table V row for
// LinearRegression (paper: 2.549 s on the authors' testbed).
func BenchmarkTableVLinearRegression(b *testing.B) { benchModule(b, "LinearRegression") }

// BenchmarkTableVKmeans measures the Table V row for Kmeans (paper:
// 4.654 s).
func BenchmarkTableVKmeans(b *testing.B) { benchModule(b, "Kmeans") }

// BenchmarkTableVRecommender measures the Table V row for Recommender
// (paper: 1.758 s).
func BenchmarkTableVRecommender(b *testing.B) { benchModule(b, "Recommender") }

// BenchmarkTableVIBaselines measures each analysis of the detection
// matrix over the shared suite (Table VI).
func BenchmarkTableVIBaselines(b *testing.B) {
	srcs := map[string]string{
		"explicit": `
int f(int *secrets, int *output) { output[0] = secrets[0] + 4; return 0; }`,
		"implicit": `
int f(int *secrets, int *output) {
    if (secrets[0] == 19) { output[0] = 0; } else { output[0] = 1; }
    return 0;
}`,
	}
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	files := map[string]*minic.File{}
	for name, src := range srcs {
		files[name] = minic.MustParse(src)
	}
	b.Run("privacyscope", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				if _, err := runDetect(core.DefaultOptions(), f, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("noninterference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				if _, err := baseline.NewNoninterference(symexec.DefaultOptions()).Check(f, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("dfa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				if _, err := baseline.NewDFATaint().Check(f, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("typesystem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				if _, err := baseline.NewTypeSystem().Check(f, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCaseStudyRecommender measures the §VI-D-1 sweep (3 ECALLs, 6
// violations).
func BenchmarkCaseStudyRecommender(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := privacyscope.AnalyzeEnclave(mlsuite.RecommenderC, mlsuite.RecommenderEDL)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TotalFindings() != 6 {
			b.Fatalf("findings = %d", rep.TotalFindings())
		}
	}
}

// BenchmarkCaseStudyKmeansInjection measures the §VI-D-2 trojan detection.
func BenchmarkCaseStudyKmeansInjection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := privacyscope.AnalyzeEnclave(mlsuite.MaliciousKmeansC, mlsuite.MaliciousKmeansEDL)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep.TotalFindings()
	}
}

// BenchmarkAblationPathSensitivity compares the path-sensitive engine
// against the path-insensitive DFA baseline on the same module — the cost
// the paper pays for implicit-leak detection (§II-B).
func BenchmarkAblationPathSensitivity(b *testing.B) {
	file := minic.MustParse(mlsuite.RecommenderC)
	params := []symexec.ParamSpec{
		{Name: "ratings", Class: symexec.ParamSecret},
		{Name: "model", Class: symexec.ParamOut},
	}
	b.Run("symbolic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runDetect(core.DefaultOptions(), file, "recommender_train", params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dfa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.NewDFATaint().Check(file, "recommender_train", params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLoopBound sweeps the symbolic loop unrolling bound.
func BenchmarkAblationLoopBound(b *testing.B) {
	src := `
int f(int *secrets, int n, int *output) {
    int i = 0;
    while (i < n) { i++; }
    output[0] = i;
    return 0;
}`
	file := minic.MustParse(src)
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "n", Class: symexec.ParamPublic},
		{Name: "output", Class: symexec.ParamOut},
	}
	for _, bound := range []int{2, 4, 8, 16, 32} {
		b.Run(itoa(bound), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Engine.LoopBound = bound
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runDetect(opts, file, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSolverPruning compares exploration with and without
// infeasible-path pruning.
func BenchmarkAblationSolverPruning(b *testing.B) {
	src := `
int f(int *secrets, int *output) {
    int a = secrets[0];
    if (a > 0) {
        if (a < 0) { output[0] = a; } else { output[0] = 0; }
    } else { output[0] = 0; }
    if (a > 10) {
        if (a < 5) { output[1] = a; } else { output[1] = 0; }
    } else { output[1] = 0; }
    return 0;
}`
	file := minic.MustParse(src)
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Engine.PruneInfeasible = on
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runDetect(opts, file, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationImplicitCheck compares Alg. 1's implicit detection
// on/off over Listing 1: the default set against explicit alone.
func BenchmarkAblationImplicitCheck(b *testing.B) {
	file := minic.MustParse(bench.Listing1C)
	params := []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	}
	for _, c := range []struct{ name, detectors string }{{"on", "default"}, {"off", "explicit"}} {
		b.Run(c.name, func(b *testing.B) {
			set, err := detect.ResolveSet(nil, nil, []string{c.detectors})
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := detect.Run(context.Background(), set, opts, ir.LowerMiniC(file), "enclave_process_data", params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkScalability measures the §VIII-C path-explosion study: analysis
// cost vs. number of sequential secret branches (2^n paths).
func BenchmarkScalability(b *testing.B) {
	for _, branches := range []int{2, 4, 6, 8} {
		src := bench.ScalabilityProgram(branches, 4)
		file := minic.MustParse(src)
		params := []symexec.ParamSpec{
			{Name: "secrets", Class: symexec.ParamSecret},
			{Name: "output", Class: symexec.ParamOut},
		}
		opts := core.DefaultOptions()
		opts.ReplayWitness = false
		b.Run("branches-"+itoa(branches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runDetect(opts, file, "f", params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionLogReg measures the logistic-regression extension
// workload: an iterative gradient-descent loop whose expressions form deep
// shared DAGs — the shape that motivated the memoized expression walks.
func BenchmarkExtensionLogReg(b *testing.B) {
	mods := mlsuite.ExtensionModules()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := privacyscope.AnalyzeEnclave(mods[0].C, mods[0].EDL)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Secure() {
			b.Fatal("logreg must be clean")
		}
	}
}

// BenchmarkDeepKmeans measures the two-iteration Kmeans (≈256 paths): the
// realistic §VIII-C scalability instance.
func BenchmarkDeepKmeans(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.DeepKmeans(); err != nil {
			b.Fatal(err)
		}
	}
}
