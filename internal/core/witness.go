package core

import (
	"strconv"
	"strings"

	"privacyscope/internal/interp"
	"privacyscope/internal/minic"
	"privacyscope/internal/obs"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/symexec"
)

// Replayer builds and verifies two-run witnesses for findings: it solves
// the finding's path condition for concrete inputs and replays the entry
// point on the MiniC interpreter. It compiles each file once, on its first
// replay, and every run of every finding shares that program; like the
// compiled program, a Replayer belongs to one goroutine.
type Replayer struct {
	sv  *solver.Solver
	obs obs.Observer
	// file is the last file replayed, prog its compiled form.
	file *minic.File
	prog *interp.Program
}

// NewReplayer returns a witness replayer reporting to o (nil: no-op).
func NewReplayer(o obs.Observer) *Replayer {
	o = obs.Or(o)
	return &Replayer{sv: solver.NewObserved(o), obs: o}
}

// ReplayExplicit builds and verifies a two-run witness for an explicit
// finding with an exact affine inversion. It prefers a fully concrete
// replay on the MiniC interpreter (run the enclave function twice with
// inputs differing only in the leaked secret, observe the [out] buffer,
// apply the inversion); when the sink or inputs cannot be concretized it
// falls back to evaluating the symbolic sink value.
func (c *Replayer) ReplayExplicit(file *minic.File, res *symexec.Result, f *Finding) *Witness {
	span := c.obs.StartSpan("check/witness")
	defer span.End()
	c.obs.Add("core.witness.replays", 1)
	w := &Witness{}
	secretSym := res.SecretSymbolByTag(int(f.Tag))
	if secretSym == nil || f.Inversion == nil || !f.Inversion.Exact {
		w.Note = "no exact inversion; replay skipped"
		return w
	}
	// A model of the path condition fixes every constrained input.
	model, ok := c.sv.Model(f.Path, res.Builder.Symbols())
	if !ok {
		w.Note = "path condition has no model; replay skipped"
		return w
	}
	bindA := make(sym.Binding, len(model))
	for k, v := range model {
		bindA[k] = v
	}
	if _, bound := bindA[secretSym.ID]; !bound {
		bindA[secretSym.ID] = sym.IntVal(1)
	}
	// Small magnitudes keep char-typed buffers clear of 8-bit wraparound,
	// which the symbolic value domain does not model.
	bindB := make(sym.Binding, len(bindA))
	for k, v := range bindA {
		bindB[k] = v
	}
	bindB[secretSym.ID] = sym.IntVal(bindA[secretSym.ID].AsInt() + 5)
	// The flipped secret must not break the path condition.
	for _, conj := range f.Path.Conjuncts() {
		v, err := sym.Eval(conj, bindB)
		if err != nil || v.IsZero() {
			w.Note = "path condition pins the leaked secret; replay skipped"
			return w
		}
	}
	w.InputsA = bindingByName(res, bindA)
	w.InputsB = bindingByName(res, bindB)

	if c.concreteReplay(file, res, f, secretSym, bindA, bindB, w) {
		return w
	}
	// Symbolic fallback: evaluate the recorded sink expression.
	obsA, errA := sym.Eval(f.Value, bindA)
	obsB, errB := sym.Eval(f.Value, bindB)
	if errA != nil || errB != nil {
		w.Note = "sink value not evaluable; replay skipped"
		return w
	}
	c.finishWitness(f, secretSym, bindA, bindB, obsA.AsFloat(), obsB.AsFloat(), w, "symbolic")
	return w
}

func (c *Replayer) finishWitness(f *Finding, secretSym *sym.Symbol, bindA, bindB sym.Binding, obsA, obsB float64, w *Witness, mode string) {
	w.ObservedA, w.ObservedB = obsA, obsB
	w.RecoveredA = (obsA - f.Inversion.Offset) / f.Inversion.Scale
	w.RecoveredB = (obsB - f.Inversion.Offset) / f.Inversion.Scale
	wantA := bindA[secretSym.ID].AsFloat()
	wantB := bindB[secretSym.ID].AsFloat()
	w.Verified = obsA != obsB &&
		approxEq(w.RecoveredA, wantA) && approxEq(w.RecoveredB, wantB)
	if !w.Verified {
		w.Note = mode + " replay did not confirm the inversion"
	} else {
		w.Note = mode + " replay"
		c.obs.Add("core.witness.verified", 1)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

func bindingByName(res *symexec.Result, b sym.Binding) map[string]int32 {
	out := make(map[string]int32)
	for name, s := range res.SecretSymbols {
		if v, ok := b[s.ID]; ok {
			out[name] = v.AsInt()
		}
	}
	return out
}

// concreteReplay drives the enclave function on the concrete interpreter,
// once per binding. Returns false (leaving w untouched beyond inputs) when
// concretization is impossible; the symbolic fallback then applies.
func (c *Replayer) concreteReplay(file *minic.File, res *symexec.Result, f *Finding, secretSym *sym.Symbol, bindA, bindB sym.Binding, w *Witness) bool {
	sizes := bufferSizes(res)
	obsA, okA := c.runConcrete(file, res, sizes, f, bindA)
	obsB, okB := c.runConcrete(file, res, sizes, f, bindB)
	if !okA || !okB {
		return false
	}
	c.finishWitness(f, secretSym, bindA, bindB, obsA, obsB, w, "concrete")
	return true
}

// runConcrete runs the enclave function once on the interpreter with
// inputs from bind and reads the finding's sink: the return value, or an
// [out] element (an unwritten element reads the zeroed buffer). Scalar
// parameters bind by name; pointer parameters become buffers sized by
// what the analysis touched (see bufferSizes), holding the bound secret
// elements. It returns false when the sink or a parameter cannot be
// concretized or the run fails. A return sink may be reached on a
// different path than the finding's when the leaking return is
// path-dependent; the binding is a model of the path, so the observation
// is valid.
func (c *Replayer) runConcrete(file *minic.File, res *symexec.Result, sizes map[string]int, f *Finding, bind sym.Binding) (float64, bool) {
	fn, ok := file.Function(res.Function)
	if !ok || fn.Body == nil {
		return 0, false
	}
	var outParam string
	var outIdx int
	switch f.Sink {
	case SinkReturn:
	case SinkOutParam:
		if outParam, outIdx, ok = splitDisplay(f.Where); !ok {
			return 0, false
		}
	default:
		return 0, false
	}
	if c.file != file {
		c.file, c.prog = file, interp.Compile(file)
	}
	machine, err := c.prog.NewMachine()
	if err != nil {
		return 0, false
	}
	var outBuf *interp.Object
	args := make([]interp.Value, 0, len(fn.Params))
	for _, p := range fn.Params {
		ptr, isPtr := p.Type.(minic.Pointer)
		if !isPtr {
			v, ok := symValueByName(res, bind, p.Name)
			if !ok {
				v = sym.IntVal(0)
			}
			if minic.IsFloatType(p.Type) {
				args = append(args, interp.FloatValue(v.AsFloat()))
			} else {
				args = append(args, interp.IntValue(int64(v.AsInt())))
			}
			continue
		}
		kind := cellKindOf(ptr.Elem)
		if kind == 0 {
			return 0, false // struct pointers: not concretized
		}
		n := sizes[p.Name]
		if p.Name == outParam && outIdx+1 > n {
			n = outIdx + 1
		}
		if n == 0 {
			n = 1
		}
		buf := interp.NewBuffer(p.Name, kind, n)
		for name, s := range res.SecretSymbols {
			pn, idx, ok := splitDisplay(name)
			if !ok || pn != p.Name {
				continue
			}
			v, bound := bind[s.ID]
			if !bound {
				continue
			}
			if kind == interp.CellFloat {
				_ = buf.Store(idx, interp.FloatValue(v.AsFloat()))
			} else {
				_ = buf.Store(idx, interp.IntValue(int64(v.AsInt())))
			}
		}
		if p.Name == outParam {
			outBuf = buf
		}
		args = append(args, interp.PtrValue(interp.Pointer{Obj: buf}))
	}
	if f.Sink == SinkOutParam && outBuf == nil {
		return 0, false
	}
	ret, err := machine.Call(res.Function, args)
	if err != nil {
		return 0, false
	}
	if f.Sink == SinkReturn {
		return ret.Float(), true
	}
	cell, err := outBuf.Load(outIdx)
	if err != nil {
		return 0, false
	}
	return cell.Float(), true
}

// splitDisplay parses "param[3]" into ("param", 3).
func splitDisplay(display string) (string, int, bool) {
	open := strings.IndexByte(display, '[')
	if open <= 0 || !strings.HasSuffix(display, "]") {
		return "", 0, false
	}
	idx, err := strconv.Atoi(display[open+1 : len(display)-1])
	if err != nil || idx < 0 {
		return "", 0, false
	}
	return display[:open], idx, true
}

// bufferSizes infers, per pointer parameter, how many elements the analysis
// touched (max display index + 1).
func bufferSizes(res *symexec.Result) map[string]int {
	sizes := make(map[string]int)
	grow := func(display string) {
		if p, idx, ok := splitDisplay(display); ok {
			if idx+1 > sizes[p] {
				sizes[p] = idx + 1
			}
		}
	}
	for name := range res.SecretSymbols {
		grow(name)
	}
	for _, path := range res.Paths {
		for _, o := range path.Outs {
			grow(o.Display)
		}
	}
	return sizes
}

func symValueByName(res *symexec.Result, bind sym.Binding, name string) (sym.Value, bool) {
	for _, s := range res.Builder.Symbols() {
		if s.Name == name {
			v, ok := bind[s.ID]
			return v, ok
		}
	}
	return sym.Value{}, false
}

func cellKindOf(t minic.Type) interp.CellKind {
	b, ok := t.(minic.Basic)
	if !ok {
		return 0
	}
	switch b.Kind {
	case minic.Char:
		return interp.CellChar
	case minic.Int:
		return interp.CellInt
	case minic.Float, minic.Double:
		return interp.CellFloat
	}
	return 0
}

// ReplayImplicit builds a two-run witness for an implicit finding: one run
// per sibling path, with every input shared except the deciding secret.
// The observed sink values (or output presence) must differ.
func (c *Replayer) ReplayImplicit(file *minic.File, res *symexec.Result, f *Finding, pcA, pcB *solver.PathCondition) *Witness {
	span := c.obs.StartSpan("check/witness")
	defer span.End()
	c.obs.Add("core.witness.replays", 1)
	w := &Witness{}
	secretSym := res.SecretSymbolByTag(int(f.Tag))
	if secretSym == nil {
		w.Note = "no secret symbol; replay skipped"
		return w
	}
	modelA, okA := c.sv.Model(pcA, res.Builder.Symbols())
	if !okA {
		w.Note = "no model for the first path; replay skipped"
		return w
	}
	modelB, okB := c.sv.Model(pcB, res.Builder.Symbols())
	if !okB {
		w.Note = "no model for the sibling path; replay skipped"
		return w
	}
	// Align: keep B's value only for the deciding secret; everything else
	// comes from A. The paths differ solely in constraints on the deciding
	// secret, so the merged binding still satisfies pcB.
	merged := make(sym.Binding, len(modelA))
	for k, v := range modelA {
		merged[k] = v
	}
	merged[secretSym.ID] = modelB[secretSym.ID]
	for _, conj := range pcB.Conjuncts() {
		v, err := sym.Eval(conj, merged)
		if err != nil || v.IsZero() {
			w.Note = "paths disagree beyond the deciding secret; replay skipped"
			return w
		}
	}
	w.InputsA = bindingByName(res, modelA)
	w.InputsB = bindingByName(res, merged)

	sizes := bufferSizes(res)
	obsA, okA := c.runConcrete(file, res, sizes, f, modelA)
	obsB, okB := c.runConcrete(file, res, sizes, f, merged)
	if !okA || !okB {
		w.Note = "sink not concretely observable; replay skipped"
		return w
	}
	w.ObservedA, w.ObservedB = obsA, obsB
	w.Verified = obsA != obsB
	if w.Verified {
		w.Note = "concrete replay: sibling observations differ"
		c.obs.Add("core.witness.verified", 1)
	} else {
		w.Note = "concrete replay did not distinguish the paths"
	}
	return w
}
