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

// TestForkArmDeclarationInvisibleToSibling pins lexical resolution across
// a fork: a local declared by one arm of a fork — in its own block, or
// after the fork in a scope both arms share — must not leak into the
// sibling arm, which still resolves the name to the global it shadows. The
// arms share the frame, and the then-arm runs to completion first, so a
// declaration resolved by name at run time would be visible to the
// else-arm.
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

// TestInlineCallForksCloneEveryArm pins the exception to parent reuse: the
// forks inside an expression-position call clone every arm, because
// inlineCall keeps using the caller's state after exploring the callee. Its
// "callee forks" warning marks the call, so it must come before the warning
// raised inside the callee's first arm.
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
