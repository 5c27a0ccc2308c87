package symexec

import (
	"sort"
	"testing"
)

// TestOutWritesSortedByRegionKey pins the order of PathResult.Outs: sorted
// by region key, which is string order ("…[10]" before "…[2]"), not write
// order or numeric index order.
func TestOutWritesSortedByRegionKey(t *testing.T) {
	src := `
int enclave_outs(char *secrets, char *output, char *extra)
{
    output[10] = 1;
    extra[1] = 3;
    output[2] = 2;
    return 0;
}
`
	params := []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
		{Name: "extra", Class: ParamOut},
	}
	res := analyzeSrc(t, src, "enclave_outs", params, DefaultOptions())
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(res.Paths))
	}
	outs := res.Paths[0].Outs
	if len(outs) != 3 {
		t.Fatalf("outs = %+v, want 3 writes", outs)
	}
	if !sort.SliceIsSorted(outs, func(i, j int) bool { return outs[i].Region.Key() < outs[j].Region.Key() }) {
		t.Errorf("outs not sorted by region key: %+v", outs)
	}
	var order []string
	for _, o := range outs {
		if o.Param == "output" {
			order = append(order, o.Display)
		}
	}
	if len(order) != 2 || order[0] != "output[10]" || order[1] != "output[2]" {
		t.Errorf("output writes in order %v, want [output[10] output[2]]", order)
	}
}

// TestForkArmDeclarationInvisibleToSibling pins copy-on-write scopes: a
// local declared by one arm of a fork — in its own block, or after the fork
// in a scope both arms share (non-empty at the fork, thanks to z) — must not
// leak into the sibling arm, which still resolves the name to the global it
// shadows. The then-arm runs to completion first, so a leaked declaration
// would be visible to the else-arm.
func TestForkArmDeclarationInvisibleToSibling(t *testing.T) {
	src := `
int x = 7;
int y = 9;

int enclave_shadow(char *secrets, char *output)
{
    int z = 0;
    if (secrets[0] > z) {
        int y = 3;
        output[0] = y;
        output[1] = 1;
    } else {
        output[0] = y;
        output[1] = x;
    }
    int x = 2;
    output[2] = x;
    return 0;
}
`
	res := analyzeSrc(t, src, "enclave_shadow", listing1Params(), DefaultOptions())
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(res.Paths))
	}
	want := [][]string{
		{"output[0]=3", "output[1]=1", "output[2]=2"},
		{"output[0]=9", "output[1]=7", "output[2]=2"},
	}
	for i, p := range res.Paths {
		var got []string
		for _, o := range p.Outs {
			got = append(got, o.Display+"="+o.Value.String())
		}
		if len(got) != len(want[i]) {
			t.Fatalf("path %d outs = %v, want %v", i, got, want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Errorf("path %d outs = %v, want %v", i, got, want[i])
				break
			}
		}
	}
}

// reuseSrc exercises every fork shape whose last arm takes over the parent
// state — if/else, a symbolic-bound loop, declarations into scopes shared
// at the fork, OCALLs and [out] writes after forks — plus an
// expression-position call whose forks must keep cloning.
const reuseSrc = `
int pick(int v)
{
    if (v > 3)
        return v - 3;
    return v;
}

int enclave_reuse(char *secrets, char *output)
{
    int acc = 0;
    int i;
    for (i = 0; i < secrets[0]; i = i + 1) {
        int t = i * 2;
        acc = acc + t;
    }
    if (secrets[1] > 0) {
        int u = acc + 1;
        output[3] = u;
        ocall_print(u);
    } else {
        output[1] = acc;
    }
    int w = pick(secrets[2]) + acc;
    output[10] = w;
    if (w > 5) output[2] = 1; else ocall_print(w);
    return acc;
}
`

// TestPathWorkersParentReuse checks that handing the parent state to the
// last arm of each fork keeps parallel exploration byte-identical to
// sequential exploration.
func TestPathWorkersParentReuse(t *testing.T) {
	base := DefaultOptions()
	base.LoopBound = 3
	seq := analyzeSrc(t, reuseSrc, "enclave_reuse", listing1Params(), base)
	if len(seq.Paths) != 14 {
		t.Fatalf("sequential paths = %d, want 14", len(seq.Paths))
	}
	want := canonicalize(seq)
	opts := base
	opts.PathWorkers = 4
	for run := 0; run < 5; run++ {
		if got := canonicalize(analyzeSrc(t, reuseSrc, "enclave_reuse", listing1Params(), opts)); got != want {
			t.Fatalf("workers=4 diverges from sequential:\n--- sequential ---\n%s--- workers=4 ---\n%s", want, got)
		}
	}
}

// TestInlineCallForksCloneEveryArm pins the exception to parent reuse: the
// forks inside an expression-position call clone every arm, because
// inlineCall keeps using the caller's state after exploring the callee. Its
// "callee forks" warning is keyed by that state's fork-choice key, so it
// must sort before the warning raised inside the callee's first arm.
func TestInlineCallForksCloneEveryArm(t *testing.T) {
	src := `
int helper(int v)
{
    if (v > 3)
        return unknown_fn(v);
    return v;
}

int enclave_inline(char *secrets, char *output)
{
    output[0] = helper(secrets[0]) + 1;
    return 0;
}
`
	res := analyzeSrc(t, src, "enclave_inline", listing1Params(), DefaultOptions())
	want := []string{
		"callee helper forks; call-expression result approximated by its first path",
		"call to unmodeled function unknown_fn returns an unconstrained public value",
	}
	if len(res.Warnings) != len(want) || res.Warnings[0] != want[0] || res.Warnings[1] != want[1] {
		t.Errorf("warnings = %q, want %q", res.Warnings, want)
	}
}
