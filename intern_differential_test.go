package privacyscope

import "testing"

// This file is the interning gate (make intern-smoke). Every engine interns
// its expressions in its own hash-consing arena, and concurrent per-ECALL
// jobs share only read-only data (the lowered program and its summary
// table), so the committed report golden (report_golden_test.go) must come
// out byte for byte under ECALL parallelism. Run under -race.

// TestInternDifferentialMLSuite runs the ML evaluation corpus under
// WithParallelism(4).
func TestInternDifferentialMLSuite(t *testing.T) {
	for _, m := range mlsuiteGolden() {
		t.Run(m.name, func(t *testing.T) { requireGolden(t, m, m.analyze(t, WithParallelism(4))) })
	}
}

// TestInternDifferentialExamples runs every examples/project and
// examples/leakpacks unit under WithParallelism(4).
func TestInternDifferentialExamples(t *testing.T) {
	for _, m := range examplesGolden(t) {
		t.Run(m.name, func(t *testing.T) { requireGolden(t, m, m.analyze(t, WithParallelism(4))) })
	}
}

// TestInternDifferentialSectionIV runs the §IV programs under
// WithParallelism(4): same findings, inversion parameters, witnesses and
// verdicts as the sequential golden, including the infeasible-branch case
// and the leak routed through summarized helpers.
func TestInternDifferentialSectionIV(t *testing.T) {
	for _, m := range sectionIVGolden() {
		t.Run(m.name, func(t *testing.T) { requireGolden(t, m, m.analyze(t, WithParallelism(4))) })
	}
}
