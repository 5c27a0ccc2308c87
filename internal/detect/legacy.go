package detect

import (
	"fmt"

	"privacyscope/internal/core"
	"privacyscope/internal/minic"
	"privacyscope/internal/solver"
	"privacyscope/internal/sym"
	"privacyscope/internal/taint"
)

// This file holds the four built-in PrivacyScope checks: explicit,
// implicit, timing and probabilistic. Their traversal order, dedupe keys
// and message strings are pinned by the report golden
// (testdata/report_golden.txt, make detect-smoke), so any drift here is a
// test failure, not a judgment call.

// eachSinkValue calls visit for every value a path shows at an observable
// sink: [out] parameters, the return value and scalar OCALL arguments.
func eachSinkValue(rc *Context, visit func(rc *Context, sink core.SinkKind, where string, pos minic.Pos, value sym.Expr, pc *solver.PathCondition)) {
	for _, p := range rc.Res.Paths {
		for _, o := range p.Outs {
			visit(rc, core.SinkOutParam, o.Display, minic.Pos{}, o.Value, p.PC)
		}
		if p.Return != nil {
			visit(rc, core.SinkReturn, "return", p.ReturnPos, p.Return, p.PC)
		}
		for _, oc := range p.Ocalls {
			where := ocallWhere(oc)
			for _, a := range oc.Args {
				visit(rc, core.SinkOCall, where, oc.Pos, a, oc.PC)
			}
		}
	}
}

// explicitDetector is the out-parameter / return / OCALL single-tag taint
// policy of Alg. 1 (declassify_check).
type explicitDetector struct{}

func (explicitDetector) Name() string     { return "explicit" }
func (explicitDetector) Rule() string     { return "PS-EXPL" }
func (explicitDetector) Severity() string { return "high" }
func (explicitDetector) DefaultOn() bool  { return true }

func (d explicitDetector) Detect(rc *Context) { eachSinkValue(rc, d.one) }

func (d explicitDetector) one(rc *Context, sink core.SinkKind, where string, pos minic.Pos, value sym.Expr, pc *solver.PathCondition) {
	label, viaPrior := rc.effectiveTaint(value)
	tag, inversion, leak := core.SingleTagLeak(value, label, rc.symbolForTag)
	if !leak {
		return
	}
	// In-enclave entropy blocks deterministic recovery: under the paper's
	// threat model this is the probabilistic detector's channel.
	if sym.HasEntropy(value) {
		return
	}
	secretName := rc.secretName(tag)
	if rc.dedupe(fmt.Sprintf("E|%s|%s|%s", where, secretName, sym.Key(value))) {
		return
	}
	f := core.Finding{
		Kind:           core.ExplicitLeak,
		Sink:           sink,
		Where:          where,
		Pos:            pos,
		Secret:         secretName,
		Tag:            tag,
		Value:          value,
		Path:           pc,
		PriorKnowledge: viaPrior,
		Inversion:      inversion,
	}
	f.Message = fmt.Sprintf("explicit leak: %s %s reveals secret %s (value %s)",
		f.Sink, f.Where, f.Secret, core.RenderValue(value))
	if rc.Opts.ReplayWitness && f.Inversion != nil && f.Inversion.Exact &&
		(sink == core.SinkOutParam || sink == core.SinkReturn) {
		f.Witness = rc.Replayer.ReplayExplicit(rc.File, rc.Res, &f)
	}
	rc.emit(d, f)
}

// implicitDetector applies Alg. 1's hashmap hm across paths, generalized
// to multi-branch programs: sibling paths whose conditions differ only in
// one secret's constraints but reveal different values at the same sink.
type implicitDetector struct{}

func (implicitDetector) Name() string     { return "implicit" }
func (implicitDetector) Rule() string     { return "PS-IMPL" }
func (implicitDetector) Severity() string { return "high" }
func (implicitDetector) DefaultOn() bool  { return true }

func (d implicitDetector) Detect(rc *Context) {
	type observation struct {
		pc    *solver.PathCondition
		value sym.Expr // nil encodes ABSENT
	}
	type sinkInfo struct {
		sink core.SinkKind
		pos  minic.Pos
		obs  []observation
	}
	sinks := make(map[string]*sinkInfo)
	var order []string
	observe := func(sink core.SinkKind, where string, pos minic.Pos, value sym.Expr, pc *solver.PathCondition) {
		// Tainted values are the explicit detector's business.
		if value != nil && !sym.TaintOf(value).IsBottom() {
			return
		}
		info, ok := sinks[where]
		if !ok {
			info = &sinkInfo{sink: sink, pos: pos}
			sinks[where] = info
			order = append(order, where)
		}
		info.obs = append(info.obs, observation{pc: pc, value: value})
	}

	// First pass: register every sink any path touches, so absences are
	// recorded regardless of path exploration order.
	register := func(sink core.SinkKind, where string, pos minic.Pos) {
		if _, ok := sinks[where]; !ok {
			sinks[where] = &sinkInfo{sink: sink, pos: pos}
			order = append(order, where)
		}
	}
	for _, p := range rc.Res.Paths {
		if p.Return != nil {
			register(core.SinkReturn, "return", p.ReturnPos)
		}
		for _, o := range p.Outs {
			register(core.SinkOutParam, o.Display, minic.Pos{})
		}
		for _, oc := range p.Ocalls {
			register(core.SinkOCall, ocallWhere(oc), oc.Pos)
		}
	}
	// Second pass: record each path's observation (or absence) per sink.
	for _, p := range rc.Res.Paths {
		seenHere := make(map[string]bool)
		if p.Return != nil {
			observe(core.SinkReturn, "return", p.ReturnPos, p.Return, p.PC)
			seenHere["return"] = true
		}
		for _, o := range p.Outs {
			observe(core.SinkOutParam, o.Display, minic.Pos{}, o.Value, p.PC)
			seenHere[o.Display] = true
		}
		for _, oc := range p.Ocalls {
			where := ocallWhere(oc)
			for _, a := range oc.Args {
				observe(core.SinkOCall, where, oc.Pos, a, oc.PC)
				seenHere[where] = true
			}
		}
		// Record absences so output-presence leaks are comparable. An
		// unwritten [out] cell is observably zero (the buffer enters the
		// enclave zeroed); a missing return value or OCALL is a genuine
		// presence channel.
		for _, where := range order {
			if seenHere[where] {
				continue
			}
			info := sinks[where]
			if info.sink == core.SinkOutParam {
				info.obs = append(info.obs, observation{pc: p.PC, value: sym.IntConst{V: 0}})
			} else {
				info.obs = append(info.obs, observation{pc: p.PC, value: nil})
			}
		}
	}

	for _, where := range order {
		info := sinks[where]
		ok := rc.differingPairs(d, where, len(info.obs),
			func(i, j int) bool { return exprEqual(info.obs[i].value, info.obs[j].value) },
			func(i, j int) {
				a, b := info.obs[i], info.obs[j]
				tag, single := rc.pcDiffTaint(a.pc, b.pc)
				if !single {
					return
				}
				values := [2]sym.Expr{a.value, b.value}
				pcA, pcB := a.pc, b.pc
				if a.value == nil {
					values = [2]sym.Expr{b.value, nil}
					pcA, pcB = b.pc, a.pc
				}
				d.one(rc, tag, info.sink, where, info.pos, values, pcA, pcB)
			})
		if !ok {
			return
		}
	}
}

func (d implicitDetector) one(rc *Context, tag taint.Tag, sink core.SinkKind, where string, pos minic.Pos, values [2]sym.Expr, pc, pcSibling *solver.PathCondition) {
	secretName := rc.secretName(tag)
	if rc.dedupe(fmt.Sprintf("I|%s|%s", where, secretName)) {
		return
	}
	f := core.Finding{
		Kind:   core.ImplicitLeak,
		Sink:   sink,
		Where:  where,
		Pos:    pos,
		Secret: secretName,
		Tag:    tag,
		Values: values,
		Path:   pc,
	}
	if rc.Opts.ReplayWitness && pcSibling != nil &&
		(sink == core.SinkReturn || sink == core.SinkOutParam) {
		f.Witness = rc.Replayer.ReplayImplicit(rc.File, rc.Res, &f, pc, pcSibling)
	}
	if values[1] != nil {
		f.Message = fmt.Sprintf("implicit leak: %s at %s reveals %s vs %s depending on secret %s",
			f.Sink, f.Where, core.RenderValue(values[0]), core.RenderValue(values[1]), secretName)
	} else {
		f.Message = fmt.Sprintf("implicit leak: output at %s is produced only on paths branching on secret %s",
			f.Where, secretName)
	}
	rc.emit(d, f)
}

// timingDetector is the §VIII-A timing-channel extension: sibling paths
// differing only in one secret's constraints with different abstract cost.
type timingDetector struct{}

func (timingDetector) Name() string     { return "timing" }
func (timingDetector) Rule() string     { return "PS-TIME" }
func (timingDetector) Severity() string { return "medium" }
func (timingDetector) DefaultOn() bool  { return false }

func (d timingDetector) Detect(rc *Context) {
	paths := rc.Res.Paths
	rc.differingPairs(d, "execution time", len(paths),
		func(i, j int) bool { return paths[i].Cost == paths[j].Cost },
		func(i, j int) {
			a, b := paths[i], paths[j]
			tag, single := rc.pcDiffTaint(a.PC, b.PC)
			if !single {
				return
			}
			secretName := rc.secretName(tag)
			if rc.dedupe(fmt.Sprintf("T|%s", secretName)) {
				return
			}
			f := core.Finding{
				Kind:   core.TimingLeak,
				Sink:   core.SinkReturn, // observed at call completion
				Where:  "execution time",
				Secret: secretName,
				Tag:    tag,
				Costs:  [2]int{a.Cost, b.Cost},
				Path:   a.PC,
			}
			f.Message = fmt.Sprintf(
				"timing channel: paths branching on secret %s execute %d vs %d statements",
				secretName, a.Cost, b.Cost)
			rc.emit(d, f)
		})
}

// probabilisticDetector is the §VIII-A probabilistic channel: a sink value
// of a single secret masked only by in-enclave entropy. No run reveals the
// secret, but the output distribution over repeated calls does.
type probabilisticDetector struct{}

func (probabilisticDetector) Name() string     { return "probabilistic" }
func (probabilisticDetector) Rule() string     { return "PS-PROB" }
func (probabilisticDetector) Severity() string { return "medium" }
func (probabilisticDetector) DefaultOn() bool  { return false }

func (d probabilisticDetector) Detect(rc *Context) { eachSinkValue(rc, d.one) }

func (d probabilisticDetector) one(rc *Context, sink core.SinkKind, where string, pos minic.Pos, value sym.Expr, pc *solver.PathCondition) {
	if !sym.HasEntropy(value) {
		return
	}
	label, _ := rc.effectiveTaint(value)
	tag, single := label.Tag()
	if !single {
		return
	}
	secretName := rc.secretName(tag)
	if rc.dedupe(fmt.Sprintf("P|%s|%s", where, secretName)) {
		return
	}
	f := core.Finding{
		Kind:   core.ProbabilisticLeak,
		Sink:   sink,
		Where:  where,
		Pos:    pos,
		Secret: secretName,
		Tag:    tag,
		Value:  value,
		Path:   pc,
	}
	f.Message = fmt.Sprintf(
		"probabilistic channel: %s %s depends on secret %s masked only by in-enclave entropy",
		f.Sink, f.Where, secretName)
	rc.emit(d, f)
}
