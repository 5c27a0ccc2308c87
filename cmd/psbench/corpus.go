package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"regexp"
	"strings"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/edl"
	"privacyscope/internal/mlsuite"
)

// expectedJSON is the verdict oracle. None of it comes from an analysis
// run: corpus entries cite the paper, the mlsuite test assertions, a
// module's design note or the example's own comment, and the templates
// section gives the findings each generator template plants by
// construction.
//
//go:embed testdata/expected.json
var expectedJSON []byte

type oracle struct {
	Modules   map[string]expect `json:"modules"`
	Templates map[string]int    `json:"templates"`
}

// expect is one module's expected outcome. Findings is nil when no source
// pins the count; the required findings are then the whole check.
type expect struct {
	Verdict  string        `json:"verdict"`
	Findings *int          `json:"findings"`
	Require  []wantFinding `json:"require,omitempty"`
	Source   string        `json:"source"`
}

type wantFinding struct {
	Where  string `json:"where"`
	Kind   string `json:"kind"`
	Secret string `json:"secret"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(expectedJSON, &o); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &o, nil
}

// check compares a module envelope with the expectation.
func (x expect) check(env *privacyscope.Envelope) error {
	if env.Verdict != x.Verdict {
		return fmt.Errorf("verdict %s, want %s", env.Verdict, x.Verdict)
	}
	if x.Findings != nil && len(env.Findings) != *x.Findings {
		return fmt.Errorf("%d findings, want %d", len(env.Findings), *x.Findings)
	}
	for _, w := range x.Require {
		found := false
		for _, f := range env.Findings {
			if f.Where == w.Where && f.Kind == w.Kind && f.Secret == w.Secret {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("missing %s finding at %s on %s", w.Kind, w.Where, w.Secret)
		}
	}
	return nil
}

// module is one enclave analysis input: C source, EDL, optional rule file,
// and the expected outcome. Name doubles as the unit path (without .c) when
// the module is written into a project tree.
type module struct {
	Name        string
	C, EDL, XML string
	Want        expect
}

// corpusModules loads the fixed corpus: the three Table V modules (their
// EDL narrowed to the entry points Table V analyzes), the §VI-D-2 trojaned
// Kmeans, and every unit of examples/project and examples/leakpacks.
func corpusModules(root string, or *oracle) ([]module, error) {
	var mods []module
	for _, m := range mlsuite.Modules() {
		mods = append(mods, module{Name: "table5/" + m.Name, C: m.C, EDL: narrowEDL(m.EDL, m.ECalls)})
	}
	mods = append(mods, module{Name: "casestudy/MaliciousKmeans", C: mlsuite.MaliciousKmeansC, EDL: mlsuite.MaliciousKmeansEDL})
	for _, dir := range []string{"project", "leakpacks"} {
		units, err := batch.Discover(filepath.Join(root, "examples", dir))
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			mods = append(mods, module{Name: dir + "/" + u.Name, C: u.Source, EDL: u.EDL, XML: u.Rules})
		}
	}
	for i := range mods {
		w, ok := or.Modules[mods[i].Name]
		if !ok {
			return nil, fmt.Errorf("expected.json has no entry for %s", mods[i].Name)
		}
		mods[i].Want = w
	}
	return mods, nil
}

// narrowEDL keeps only the public ECALL declarations named in keep.
func narrowEDL(src string, keep []string) string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "public ") && !declaresAny(line, keep) {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func declaresAny(line string, names []string) bool {
	for _, n := range names {
		if strings.Contains(line, " "+n+"(") {
			return true
		}
	}
	return false
}

// gen generates seeded modules from templates whose findings are known by
// construction: every leaking sink a template writes carries a
// "/* planted */" marker, and the template's count in expected.json is the
// number of markers it writes.
type gen struct {
	r  *rand.Rand
	or *oracle
}

// newGen returns a generator for one input family of one seed; distinct
// streams keep families independent of each other's draws.
func newGen(seed, stream uint64, or *oracle) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, stream)), or: or}
}

func (g *gen) hex() string { return fmt.Sprintf("%04x", g.r.Uint32()&0xffff) }

// ecall is one generated entry point.
type ecall struct {
	tmpl    string
	c       string
	trusted string // EDL trusted declaration
	ocall   string // EDL untrusted declaration, if any
}

// smallKinds are the small-module templates: two clean and four leaking
// ones, covering [out] writes, OCALL arguments, return codes and
// secret-dependent branches.
var smallKinds = []string{"mask", "branch", "explicit", "implicit", "ocall", "errcode"}

// small instantiates one small-module template.
func (g *gen) small(kind string, i int) ecall {
	name := fmt.Sprintf("%s_%d_%s", kind, i, g.hex())
	a, b := g.r.IntN(4), 4+g.r.IntN(4)
	k := 1 + g.r.IntN(99)
	sig := fmt.Sprintf("public int %s([in] int *secrets, [out] int *output);", name)
	var body string
	var ocall string
	switch kind {
	case "mask":
		body = fmt.Sprintf("    output[0] = secrets[%d] + secrets[%d] + %d;\n    return 0;\n", a, b, k)
	case "branch":
		body = fmt.Sprintf("    int scratch = 0;\n    if (secrets[%d] > %d) {\n        scratch = scratch + 1;\n    } else {\n        scratch = scratch - 1;\n    }\n    output[0] = secrets[%d] + secrets[%d];\n    return 0;\n", a, k, a, b)
	case "explicit":
		body = fmt.Sprintf("    int t = secrets[%d] * %d + %d;\n    output[0] = t; /* planted */\n    return 0;\n", a, 1+g.r.IntN(5), k)
	case "implicit":
		body = fmt.Sprintf("    if (secrets[%d] > %d) {\n        output[0] = %d; /* planted */\n    } else {\n        output[0] = %d;\n    }\n    return 0;\n", a, k, k+1, k+2)
	case "ocall":
		oc := "ocall_" + name
		sig = fmt.Sprintf("public int %s([in] int *secrets);", name)
		ocall = fmt.Sprintf("void %s(int value);", oc)
		body = fmt.Sprintf("    %s(secrets[%d] + %d); /* planted */\n    return 0;\n", oc, a, k)
	case "errcode":
		body = fmt.Sprintf("    output[0] = 0;\n    if (secrets[%d] == %d)\n        return %d; /* planted */\n    return 0;\n", a, k, 1+g.r.IntN(9))
	default:
		panic("unknown small template " + kind)
	}
	params := "int *secrets, int *output"
	if kind == "ocall" {
		params = "int *secrets"
	}
	return ecall{
		tmpl:    kind,
		c:       fmt.Sprintf("int %s(%s)\n{\n%s}\n", name, params, body),
		trusted: sig,
		ocall:   ocall,
	}
}

// smallModules generates n small modules with 1–4 entry points each (module
// i has 1+i%4). The template multiset is fixed per n — every kind equally
// often — and the seed shuffles which module gets which, so every seed
// costs about the same.
func (g *gen) smallModules(dir string, n int) []module {
	total := 0
	for i := 0; i < n; i++ {
		total += 1 + i%4
	}
	kinds := make([]string, total)
	for i := range kinds {
		kinds[i] = smallKinds[i%len(smallKinds)]
	}
	g.r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var mods []module
	for i := 0; i < n; i++ {
		var es []ecall
		for j := 0; j <= i%4; j++ {
			es = append(es, g.small(kinds[0], j))
			kinds = kinds[1:]
		}
		mods = append(mods, g.assemble(fmt.Sprintf("%s/small_%02d_%s", dir, i, g.hex()), "", es))
	}
	return mods
}

// assemble joins entry points (after any shared prelude) into a module and
// derives its expectation from the templates' planted counts.
func (g *gen) assemble(name, prelude string, es []ecall) module {
	var c, trusted, untrusted strings.Builder
	c.WriteString(prelude)
	planted := 0
	for _, e := range es {
		c.WriteString("\n" + e.c)
		trusted.WriteString("        " + e.trusted + "\n")
		if e.ocall != "" {
			untrusted.WriteString("        " + e.ocall + "\n")
		}
		planted += g.or.Templates[e.tmpl]
	}
	edlSrc := "enclave {\n    trusted {\n" + trusted.String() + "    };\n"
	if untrusted.Len() > 0 {
		edlSrc += "    untrusted {\n" + untrusted.String() + "    };\n"
	}
	edlSrc += "};\n"
	want := expect{Verdict: "secure", Findings: &planted, Source: "generator templates"}
	if planted > 0 {
		want.Verdict = "findings"
	}
	return module{Name: name, C: c.String(), EDL: edlSrc, Want: want}
}

// ladder is the §VIII-C scalability shape: straight-line statements mixing
// four secrets into the output, then `branches` sequential secret branches
// (2^branches paths) that only touch a scratch local. Every path writes the
// same four-secret mix, so it is clean.
func (g *gen) ladder(branches, straight int) ecall {
	name := "ladder_" + g.hex()
	var b strings.Builder
	b.WriteString("    int acc = 0;\n    int scratch = 0;\n")
	for i := 0; i < straight; i++ {
		fmt.Fprintf(&b, "    acc = acc + secrets[%d];\n", i%4)
	}
	for i := 0; i < branches; i++ {
		k, d := g.r.IntN(100), 1+g.r.IntN(9)
		fmt.Fprintf(&b, "    if (secrets[%d] > %d) { scratch = scratch + %d; } else { scratch = scratch - %d; }\n", 4+i, k, d, d)
	}
	b.WriteString("    output[0] = acc;\n    return 0;\n")
	return ecall{
		tmpl:    "ladder",
		c:       fmt.Sprintf("int %s(int *secrets, int *output)\n{\n%s}\n", name, b.String()),
		trusted: fmt.Sprintf("public int %s([in] int *secrets, [out] int *output);", name),
	}
}

// chain is the summary-bench shape: helpers h0..h{depth-1}, each running a
// concrete loop and calling the level below twice (inlining the top costs
// 2^depth-1 expansions; the b-b term folds away), shared by `entries`
// ECALLs that each export the chain applied to one secret — one planted
// explicit finding per entry.
func (g *gen) chain(depth, entries int) (prelude string, es []ecall) {
	id := g.hex()
	var p strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&p, "int h%s_%d(int x)\n{\n    int acc = x;\n    int i = 0;\n    while (i < 6) { acc = acc + %d; i = i + 1; }\n", id, i, 1+g.r.IntN(9))
		if i > 0 {
			fmt.Fprintf(&p, "    int a = h%s_%d(acc);\n    int b = h%s_%d(acc + %d);\n    return a + (b - b);\n", id, i-1, id, i-1, 1+g.r.IntN(9))
		} else {
			p.WriteString("    return acc;\n")
		}
		p.WriteString("}\n")
	}
	for e := 0; e < entries; e++ {
		name := fmt.Sprintf("chain_%s_%d", id, e)
		es = append(es, ecall{
			tmpl:    "chain",
			c:       fmt.Sprintf("int %s(int *secrets, int *output)\n{\n    int acc = h%s_%d(secrets[%d]);\n    output[0] = acc; /* planted */\n    return 0;\n}\n", name, id, depth-1, e%4),
			trusted: fmt.Sprintf("public int %s([in] int *secrets, [out] int *output);", name),
		})
	}
	return p.String(), es
}

// loop is a symbolic-bound loop: a public count clamped to bound, each
// iteration branching on a fresh secret (about 3·2^bound paths; the
// iteration past the clamp is pruned as infeasible). Only a scratch local
// depends on the branches, so it is clean. bound stays below the engine's
// default loop bound (8) so no path is cut.
func (g *gen) loop(bound int) ecall {
	name := "loop_" + g.hex()
	c := fmt.Sprintf(`int %s(int *secrets, int n, int *output)
{
    int acc = secrets[0] + secrets[1];
    int scratch = 0;
    int i = 0;
    if (n > %d) {
        n = %d;
    }
    while (i < n) {
        if (secrets[2 + i] > %d) {
            scratch = scratch + %d;
        } else {
            scratch = scratch - 1;
        }
        i = i + 1;
    }
    output[0] = acc;
    return 0;
}
`, name, bound, bound, g.r.IntN(100), 1+g.r.IntN(9))
	return ecall{
		tmpl:    "loop",
		c:       c,
		trusted: fmt.Sprintf("public int %s([in] int *secrets, int n, [out] int *output);", name),
	}
}

// Path-explosion shapes: ladders as (branches, straight-line statements),
// chains as (depth, entries), loops as their bound. The shapes are fixed so
// every seed costs about the same; the seed picks constants, names and the
// order.
var (
	ladderShapes = [][2]int{{6, 64}, {7, 48}, {8, 32}, {9, 16}, {10, 8}, {10, 4}}
	chainShapes  = [][2]int{{9, 1}, {8, 2}, {7, 3}, {6, 4}, {5, 4}}
	loopBounds   = []int{5, 6, 7, 7, 6}
)

// explosionModules generates the 16 path-explosion modules.
func (g *gen) explosionModules() []module {
	var mods []module
	for _, s := range ladderShapes {
		mods = append(mods, g.assemble("gen/ladder_"+g.hex(), "", []ecall{g.ladder(s[0], s[1])}))
	}
	for _, s := range chainShapes {
		prelude, es := g.chain(s[0], s[1])
		mods = append(mods, g.assemble("gen/chain_"+g.hex(), prelude, es))
	}
	for _, b := range loopBounds {
		mods = append(mods, g.assemble("gen/loop_"+g.hex(), "", []ecall{g.loop(b)}))
	}
	return mods
}

// shuffle permutes modules with the generator's stream.
func (g *gen) shuffle(mods []module) {
	g.r.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
}

// renamer makes distinct copies of a module by suffixing its ECALL names
// (in the C source, the EDL and the rule file), so each copy has its own
// cache key and the original's expected outcome.
type renamer struct {
	base module
	re   *regexp.Regexp
}

func newRenamer(m module) (*renamer, error) {
	iface, err := edl.Parse(m.EDL)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name, err)
	}
	var names []string
	for _, sig := range iface.Trusted {
		if sig.Public {
			names = append(names, regexp.QuoteMeta(sig.Name))
		}
	}
	re, err := regexp.Compile(`\b(` + strings.Join(names, "|") + `)\b`)
	if err != nil {
		return nil, err
	}
	return &renamer{base: m, re: re}, nil
}

func (r *renamer) copy(suffix string) module {
	m := r.base
	repl := "${1}_" + suffix
	m.Name = r.base.Name + "#" + suffix
	m.C = r.re.ReplaceAllString(m.C, repl)
	m.EDL = r.re.ReplaceAllString(m.EDL, repl)
	m.XML = r.re.ReplaceAllString(m.XML, repl)
	return m
}
