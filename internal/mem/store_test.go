package mem

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"privacyscope/internal/sym"
)

// refStore is the reference the slot store must agree with: a plain map,
// copied whole on every fork.
type refStore map[Region]SVal

// storePair is one live store and its reference.
type storePair struct {
	st  *Store
	ref refStore
}

// checkStore compares st with ref on every region the manager has minted,
// on Bindings, and on BindingsUnder for each root.
func checkStore(t *testing.T, m *Manager, p storePair, step int) {
	t.Helper()
	for _, r := range m.regions {
		got, ok := p.st.Lookup(r)
		want, wantOK := p.ref[r]
		if ok != wantOK || got != want {
			t.Fatalf("step %d: Lookup(%s) = %v, %v; reference %v, %v", step, r.Key(), got, ok, want, wantOK)
		}
	}
	if p.st.Len() != len(p.ref) {
		t.Fatalf("step %d: Len = %d, reference %d", step, p.st.Len(), len(p.ref))
	}
	keep := func(Region) bool { return true }
	requireBindings(t, step, "Bindings", p.st.Bindings(), p.ref, keep)
	for _, root := range m.regions {
		if root.Super() != nil {
			continue
		}
		under := func(r Region) bool { return r.Super() != nil && Root(r) == root }
		got := p.st.BindingsUnder(func(r Region) bool { return r == root })
		requireBindings(t, step, "BindingsUnder("+root.Key()+")", got, p.ref, under)
	}
}

// requireBindings checks got against the reference's bindings that pass
// keep, in region-key order.
func requireBindings(t *testing.T, step int, what string, got []Binding, ref refStore, keep func(Region) bool) {
	t.Helper()
	var want []Binding
	for r, v := range ref {
		if keep(r) {
			want = append(want, Binding{r, v})
		}
	}
	slices.SortFunc(want, func(a, b Binding) int { return strings.Compare(a.Region.Key(), b.Region.Key()) })
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: %s = %v, reference %v", step, what, got, want)
	}
}

// TestStoreMatchesReference drives random binds, forks and region mints
// over a tree of stores and checks every live store against a map-based
// reference every 20 steps. Forks of forks and writes on both sides of a
// fork exercise the chunk sharing and the ownership tokens; regions minted
// mid-run have slots past the last chunk of the older stores.
func TestStoreMatchesReference(t *testing.T) {
	sb := newSymBuilder()
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := NewManager()
		var roots []Region
		mint := func() {
			switch r.Intn(4) {
			case 0:
				roots = append(roots, m.Var("v"))
			case 1:
				roots = append(roots, m.SymBlock(sb.FreshPublic("p"), "p", false))
			case 2:
				m.Element(roots[r.Intn(len(roots))], r.Intn(12))
			default:
				m.Field(roots[r.Intn(len(roots))], []string{"a", "b", "c"}[r.Intn(3)])
			}
		}
		roots = append(roots, m.Var("x"))
		for range 6 {
			mint()
		}
		pairs := []storePair{{m.NewStore(), refStore{}}}
		for step := 0; step < 400; step++ {
			i := r.Intn(len(pairs))
			p := pairs[i]
			switch k := r.Intn(10); {
			case k < 6: // bind an existing region
				reg := m.regions[r.Intn(len(m.regions))]
				v := sym.IntConst{V: int32(r.Intn(1000))}
				p.st.Bind(reg, v)
				p.ref[reg] = v
			case k < 8 && len(pairs) < 12: // fork: either side may write next
				pairs = append(pairs, storePair{p.st.Clone(), maps.Clone(p.ref)})
			default: // mint regions past every store's last chunk
				for range 1 + r.Intn(10) {
					mint()
				}
			}
			if step%20 == 19 {
				for _, q := range pairs {
					checkStore(t, m, q, step)
				}
			}
		}
	}
}

// TestStoreForkWritesStayApart pins the ownership rule on one chunk: after
// a fork, a write on either side copies the shared chunk once, and each
// side then writes its own copy in place.
func TestStoreForkWritesStayApart(t *testing.T) {
	m := NewManager()
	a, b := m.Var("a"), m.Var("b") // one chunk
	var one, two SVal = sym.IntConst{V: 1}, sym.IntConst{V: 2}
	parent := m.NewStore()
	parent.Bind(a, one)
	child := parent.Clone()
	grandchild := child.Clone()
	parent.Bind(b, one)
	child.Bind(a, two)
	child.Bind(b, two)
	grandchild.Bind(b, Undefined{})
	for _, c := range []struct {
		st   *Store
		a, b SVal
	}{{parent, one, one}, {child, two, two}, {grandchild, one, Undefined{}}} {
		va, _ := c.st.Lookup(a)
		vb, _ := c.st.Lookup(b)
		if va != c.a || vb != c.b {
			t.Errorf("a, b = %v, %v; want %v, %v", va, vb, c.a, c.b)
		}
	}
	if parent.chunks[0] == child.chunks[0] || child.chunks[0] == grandchild.chunks[0] {
		t.Error("a written chunk is still shared after the fork")
	}
	if got := testing.AllocsPerRun(10, func() { child.Bind(a, one) }); got != 0 {
		t.Errorf("rewriting an owned chunk allocates %.1f times", got)
	}
}
