package privacyscope

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
	"privacyscope/internal/symexec"
)

// This file is the faint-join differential: a faint join (an if whose arms
// only write never-observed locals at equal cost, continued once after
// both arms) must change exploration cost and nothing else. Each generated
// program P is compared with P′, the same program plus one `;` in the else
// arm of every faint join — which makes the arms' costs unequal and so
// disables the merge without any engine switch.

// gnode is one generated statement: a straight-line statement (text), an
// if (cond with then/else arms), or a two-iteration concrete loop (loop
// with its body in then).
type gnode struct {
	text       string
	cond       string
	loop       bool
	then, elss []gnode
}

// faintGen generates programs mixing faint-only arms (scratch locals s0–s2),
// relevant arms (acc, which reaches output[0] and may reach the return),
// implicit leaks, OCALLs and explicit sinks.
type faintGen struct {
	r   *rand.Rand
	ifs int // ifs emitted so far; each gets its own condition secret
}

// maxIfs bounds P′ at 2^7 paths per program, far inside the pair budget.
const maxIfs = 7

// cond is a relevant branch's condition on its own secret, sometimes mixed
// with a data secret.
func (g *faintGen) cond(index string) string {
	k := g.r.IntN(100)
	if g.r.IntN(4) == 0 {
		return fmt.Sprintf("secrets[%s] + secrets[%d] > %d", index, g.r.IntN(8), k)
	}
	return fmt.Sprintf("secrets[%s] > %d", index, k)
}

// faintIf is an if whose arms write only scratch locals, at equal cost. Its
// condition reads only its own secret: a faint join drops the condition
// from the path condition, and witness replay searches a bounded set of
// candidate models, so a dropped conjunct that shares secrets with the
// rest of the path condition can change which model the search finds, and
// with it whether the witness verifies (in either direction).
func (g *faintGen) faintIf(index string) gnode {
	x, y := fmt.Sprintf("s%d", g.r.IntN(3)), fmt.Sprintf("s%d", g.r.IntN(3))
	d, e := 1+g.r.IntN(9), 1+g.r.IntN(9)
	n := gnode{cond: fmt.Sprintf("secrets[%s] > %d", index, g.r.IntN(100))}
	switch g.r.IntN(3) {
	case 0:
		n.then = []gnode{{text: fmt.Sprintf("%s = %s + %d;", x, x, d)}}
		n.elss = []gnode{{text: fmt.Sprintf("%s = %s - %d;", x, x, e)}}
	case 1:
		n.then = []gnode{{text: fmt.Sprintf("%s = %s * %d;", x, y, d)}}
		n.elss = []gnode{{text: fmt.Sprintf("%s = %s + %s;", x, x, y)}}
	default:
		n.then = []gnode{{text: fmt.Sprintf("int t = %s + %d;", x, d)}, {text: y + " = t;"}}
		n.elss = []gnode{{text: fmt.Sprintf("%s = %s - %d;", y, y, e)}, {text: x + "++;"}}
	}
	return n
}

func (g *faintGen) nextIndex() string {
	g.ifs++
	return fmt.Sprint(7 + g.ifs)
}

func (g *faintGen) stmt(top bool) gnode {
	d, e, a := 1+g.r.IntN(9), 1+g.r.IntN(9), g.r.IntN(8)
	kind := g.r.IntN(8)
	if g.ifs >= maxIfs || (!top && kind >= 5) || (kind >= 5 && g.ifs+3 > maxIfs) {
		kind = 4
	}
	switch kind {
	case 0, 1:
		return g.faintIf(g.nextIndex())
	case 2:
		return gnode{cond: g.cond(g.nextIndex()),
			then: []gnode{{text: fmt.Sprintf("acc = acc + %d;", d)}},
			elss: []gnode{{text: fmt.Sprintf("acc = acc - %d;", e)}}}
	case 3:
		m := 1 + g.r.IntN(2)
		return gnode{cond: g.cond(g.nextIndex()),
			then: []gnode{{text: fmt.Sprintf("output[%d] = %d;", m, d)}},
			elss: []gnode{{text: fmt.Sprintf("output[%d] = %d;", m, d+e)}}}
	case 4:
		return gnode{text: []string{
			fmt.Sprintf("acc = acc + secrets[%d];", a),
			fmt.Sprintf("s%d = s%d + secrets[%d];", a%3, a%3, a),
			"ocall_log(acc);",
			fmt.Sprintf("ocall_log(secrets[%d] * 3);", a),
		}[g.r.IntN(4)]}
	case 5, 6:
		// A relevant branch with a faint join nested in each arm.
		return gnode{cond: g.cond(g.nextIndex()),
			then: []gnode{{text: fmt.Sprintf("acc = acc + %d;", d)}, g.faintIf(g.nextIndex())},
			elss: []gnode{{text: fmt.Sprintf("acc = acc - %d;", e)}, g.faintIf(g.nextIndex())}}
	default:
		// A concrete loop whose body is a faint join on a per-iteration
		// secret.
		g.ifs += 2
		return gnode{loop: true, then: []gnode{g.faintIf("20 + i")}}
	}
}

// program returns P's statements.
func (g *faintGen) program() []gnode {
	var body []gnode
	for n := 4 + g.r.IntN(5); n > 0; n-- {
		body = append(body, g.stmt(true))
	}
	body = append(body, gnode{text: "output[0] = acc;"})
	if g.r.IntN(3) == 0 {
		body = append(body, gnode{text: "output[3] = s2;"}) // s2 becomes relevant
	}
	if g.r.IntN(2) == 0 {
		return append(body, gnode{text: "return acc;"})
	}
	return append(body, gnode{text: "return 0;"})
}

const faintEDL = `
enclave {
    trusted {
        public int f([in] int *secrets, [out] int *output);
    };
    untrusted {
        void ocall_log(int v);
    };
};
`

// renderFaint renders the module; pad(i) reports whether the i-th if in
// pre-order gets an extra `;` in its else arm.
func renderFaint(body []gnode, pad func(int) bool) string {
	var sb strings.Builder
	sb.WriteString("void ocall_log(int v);\n\nint f(int *secrets, int *output)\n{\n")
	sb.WriteString("    int acc = secrets[0];\n    int s0 = 0;\n    int s1 = 0;\n    int s2 = 0;\n    int i;\n")
	ifs := 0
	var emit func(ns []gnode, indent string)
	emit = func(ns []gnode, indent string) {
		for _, n := range ns {
			switch {
			case n.loop:
				sb.WriteString(indent + "for (i = 0; i < 2; i = i + 1) {\n")
				emit(n.then, indent+"    ")
				sb.WriteString(indent + "}\n")
			case n.cond != "":
				padded := pad(ifs)
				ifs++
				sb.WriteString(indent + "if (" + n.cond + ") {\n")
				emit(n.then, indent+"    ")
				// The pad shares the else line, so no later statement (and no
				// OCALL sink position) moves.
				if padded {
					sb.WriteString(indent + "} else { ;\n")
				} else {
					sb.WriteString(indent + "} else {\n")
				}
				emit(n.elss, indent+"    ")
				sb.WriteString(indent + "}\n")
			default:
				sb.WriteString(indent + n.text + "\n")
			}
		}
	}
	emit(body, "    ")
	sb.WriteString("}\n")
	return sb.String()
}

// faintJoinMarks lowers src and returns the FaintJoin mark of each if of f,
// in pre-order.
func faintJoinMarks(t *testing.T, src string) []bool {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	fn, _ := ir.LowerMiniC(file).Func("f")
	var marks []bool
	var walk func(op ir.Op)
	walk = func(op ir.Op) {
		switch v := op.(type) {
		case *ir.BlockOp:
			for _, o := range v.Ops {
				walk(o)
			}
		case *ir.IfOp:
			marks = append(marks, v.FaintJoin)
			walk(v.Then)
			walk(v.Else)
		case *ir.LoopOp:
			walk(v.Body)
		}
	}
	walk(fn.Body)
	return marks
}

// faintFindings renders a module's verdict and findings as sorted
// rule|sink|secret|witness-verified lines.
func faintFindings(rep *EnclaveReport) string {
	var lines []string
	for _, f := range rep.Findings() {
		lines = append(lines, fmt.Sprintf("%s|%s|%s|%t", f.Rule, f.Where, f.Secret, f.Witness != nil && f.Witness.Verified))
	}
	sort.Strings(lines)
	return rep.Verdict().String() + "\n" + strings.Join(lines, "\n")
}

// faintObservations explores f on the engine alone and returns the sorted
// set of distinct out, return and OCALL observations, and the path count.
func faintObservations(t *testing.T, src string) (string, int) {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := symexec.DefaultOptions()
	opts.OCallFuncs = map[string]bool{"ocall_log": true}
	res, err := symexec.New(file, opts).AnalyzeFunction(context.Background(), "f", []symexec.ParamSpec{
		{Name: "secrets", Class: symexec.ParamSecret},
		{Name: "output", Class: symexec.ParamOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range res.Paths {
		for _, o := range p.Outs {
			seen["out "+o.Display+" = "+o.Value.String()] = true
		}
		if p.Return != nil {
			seen["return "+p.Return.String()] = true
		}
		for _, oc := range p.Ocalls {
			args := make([]string, len(oc.Args))
			for i, a := range oc.Args {
				args[i] = a.String()
			}
			seen["ocall "+oc.Func+"("+strings.Join(args, ", ")+")"] = true
		}
	}
	obs := make([]string, 0, len(seen))
	for o := range seen {
		obs = append(obs, o)
	}
	sort.Strings(obs)
	return strings.Join(obs, "\n"), len(res.Paths)
}

func TestFaintJoinDifferential(t *testing.T) {
	merged := 0
	const programs = 40
	for seed := uint64(1); seed <= programs; seed++ {
		g := &faintGen{r: rand.New(rand.NewPCG(seed, 0x5eed))}
		body := g.program()
		p := renderFaint(body, func(int) bool { return false })
		marks := faintJoinMarks(t, p)
		pPrime := renderFaint(body, func(i int) bool { return marks[i] })
		if !slices.Contains(marks, true) {
			continue
		}
		if again := faintJoinMarks(t, pPrime); slices.Contains(again, true) {
			t.Fatalf("seed %d: P′ still has faint joins %v:\n%s", seed, again, pPrime)
		}
		merged++
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			repP, err := AnalyzeEnclave(p, faintEDL)
			if err != nil {
				t.Fatal(err)
			}
			repQ, err := AnalyzeEnclave(pPrime, faintEDL)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := faintFindings(repP), faintFindings(repQ); a != b {
				t.Errorf("findings differ:\n--- P ---\n%s\n--- P′ ---\n%s\n%s", a, b, p)
			}
			obsP, pathsP := faintObservations(t, p)
			obsQ, pathsQ := faintObservations(t, pPrime)
			if obsP != obsQ {
				t.Errorf("observations differ:\n--- P ---\n%s\n--- P′ ---\n%s\n%s", obsP, obsQ, p)
			}
			if pathsP >= pathsQ {
				t.Errorf("P explored %d paths, P′ %d: its faint joins saved nothing\n%s", pathsP, pathsQ, p)
			}
			if repP.Reports[0].Paths != pathsP || repQ.Reports[0].Paths != pathsQ {
				t.Errorf("facade paths %d/%d, engine %d/%d", repP.Reports[0].Paths, repQ.Reports[0].Paths, pathsP, pathsQ)
			}
		})
	}
	if merged < programs/2 {
		t.Errorf("only %d of %d generated programs had a faint join", merged, programs)
	}
}

// TestFaintJoinKeepsAccessPatternFinding: merging after a secret branch
// must not hide the branch from the access-pattern detector, which reads
// the branch event logged before the fork.
func TestFaintJoinKeepsAccessPatternFinding(t *testing.T) {
	const src = `
int probe(int *secrets, int *output)
{
    int scratch = 0;
    if (secrets[0] > 5) {
        scratch = scratch + 1;
    } else {
        scratch = scratch - 1;
    }
    output[0] = 7;
    return 0;
}
`
	const edl = `
enclave {
    trusted {
        public int probe([in] int *secrets, [out] int *output);
    };
};
`
	rules, err := os.ReadFile("examples/leakpacks/accesspattern_leak.xml")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	rep, err := AnalyzeEnclave(src, edl, WithConfigXML(rules), WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("symexec.merges"); got != 1 {
		t.Fatalf("symexec.merges = %d, want 1 (the branch is a faint join)", got)
	}
	if rep.Reports[0].Paths != 1 {
		t.Errorf("paths = %d, want 1 after the join", rep.Reports[0].Paths)
	}
	found := false
	for _, f := range rep.Findings() {
		if f.Rule == "PS-ACCESS" && f.Secret == "secrets[0]" {
			found = true
		}
	}
	if !found {
		t.Errorf("no PS-ACCESS finding for the secret branch:\n%s", rep.Render())
	}
}
