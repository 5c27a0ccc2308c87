package detect

import (
	"fmt"

	"privacyscope/internal/core"
	"privacyscope/internal/sym"
	"privacyscope/internal/symexec"
)

// This file holds the four scenario packs — enclave leak classes from the
// related work that the paper's core policy does not cover. All packs are
// off by default and opt in via the XML rule config or the -detectors
// flag; enabling one that needs engine events (pointer escapes, lifecycle
// order, secret branches/indices) switches those recording options on and
// forces inline mode, since function summaries replay effects but not the
// per-path event streams.

// ocallPtrDetector flags secret-tainted data escaping through an OCALL
// pointer argument into untrusted memory (STELLA's pointer-leak pattern).
// The explicit policy only inspects scalar OCALL arguments; this pack
// walks every memory cell reachable from a pointer argument at call time.
type ocallPtrDetector struct{}

func (ocallPtrDetector) Name() string     { return "ocall-pointer" }
func (ocallPtrDetector) Rule() string     { return "PS-OCPTR" }
func (ocallPtrDetector) Severity() string { return "high" }
func (ocallPtrDetector) DefaultOn() bool  { return false }

func (d ocallPtrDetector) Detect(rc *Context) {
	for _, p := range rc.Res.Paths {
		for _, oc := range p.Ocalls {
			site := ocallWhere(oc)
			for _, pa := range oc.PtrArgs {
				for _, cell := range pa.Cells {
					label, viaPrior := rc.effectiveTaint(cell.Value)
					if label.IsBottom() || sym.HasEntropy(cell.Value) {
						continue
					}
					// Single-tag cells get the full Alg. 1 treatment
					// (inversion formula); multi-tag cells still escape and
					// are reported as a mix.
					secret, tag := rc.secretNames(cell.Value)
					var inv *sym.Inversion
					if t, inversion, leak := core.SingleTagLeak(cell.Value, label, rc.symbolForTag); leak {
						secret, tag, inv = rc.secretName(t), t, inversion
					}
					where := fmt.Sprintf("%s[%s]", site, cell.Display)
					if rc.dedupe(fmt.Sprintf("OC|%s|%s", where, secret)) {
						continue
					}
					f := core.Finding{
						Kind:           core.OcallPtrLeak,
						Sink:           core.SinkOCall,
						Where:          where,
						Pos:            oc.Pos,
						Secret:         secret,
						Tag:            tag,
						Value:          cell.Value,
						Path:           oc.PC,
						PriorKnowledge: viaPrior,
						Inversion:      inv,
					}
					f.Message = fmt.Sprintf(
						"ocall-pointer leak: cell %s escapes through pointer arg %d of OCALL %s carrying secret %s (value %s)",
						cell.Display, pa.Arg, site, secret, core.RenderValue(cell.Value))
					rc.emit(d, f)
				}
			}
		}
	}
}

// errCodeDetector flags the status-code covert channel: a secret-dependent
// value reaching the ecall return code (sgx_status_t style). Two modes:
// a return value data-tainted by secrets — including multi-secret mixes the
// single-tag explicit policy skips — and sibling paths returning distinct
// untainted status codes selected by a secret branch.
type errCodeDetector struct{}

func (errCodeDetector) Name() string     { return "errcode-channel" }
func (errCodeDetector) Rule() string     { return "PS-ERR" }
func (errCodeDetector) Severity() string { return "medium" }
func (errCodeDetector) DefaultOn() bool  { return false }

func (d errCodeDetector) Detect(rc *Context) {
	// Mode 1: data dependence — the returned code computes over secrets.
	for _, p := range rc.Res.Paths {
		if p.Return == nil {
			continue
		}
		label, viaPrior := rc.effectiveTaint(p.Return)
		if label.IsBottom() || sym.HasEntropy(p.Return) {
			continue
		}
		secret, tag := rc.secretNames(p.Return)
		if rc.dedupe(fmt.Sprintf("EC|return|%s", secret)) {
			continue
		}
		f := core.Finding{
			Kind:           core.ErrCodeLeak,
			Sink:           core.SinkReturn,
			Where:          "return",
			Pos:            p.ReturnPos,
			Secret:         secret,
			Tag:            tag,
			Value:          p.Return,
			Path:           p.PC,
			PriorKnowledge: viaPrior,
		}
		f.Message = fmt.Sprintf(
			"errcode channel: ecall status code computes over secret %s (value %s)",
			secret, core.RenderValue(p.Return))
		rc.emit(d, f)
	}
	// Mode 2: control dependence — distinct concrete status codes selected
	// by a secret branch (the classic error-oracle).
	var paths []*symexec.PathResult
	for _, p := range rc.Res.Paths {
		// Tainted return values are mode 1's business.
		if p.Return != nil && sym.TaintOf(p.Return).IsBottom() {
			paths = append(paths, p)
		}
	}
	rc.differingPairs(d, "return", len(paths),
		func(i, j int) bool { return exprEqual(paths[i].Return, paths[j].Return) },
		func(i, j int) {
			a, b := paths[i], paths[j]
			tag, single := rc.pcDiffTaint(a.PC, b.PC)
			if !single {
				return
			}
			secret := rc.secretName(tag)
			if rc.dedupe(fmt.Sprintf("ECP|return|%s", secret)) {
				return
			}
			f := core.Finding{
				Kind:   core.ErrCodeLeak,
				Sink:   core.SinkReturn,
				Where:  "return",
				Pos:    a.ReturnPos,
				Secret: secret,
				Tag:    tag,
				Values: [2]sym.Expr{a.Return, b.Return},
				Path:   a.PC,
			}
			f.Message = fmt.Sprintf(
				"errcode channel: ecall status code %s vs %s depends on secret %s",
				core.RenderValue(a.Return), core.RenderValue(b.Return), secret)
			rc.emit(d, f)
		})
}

// orderlinessDetector checks the per-path ecall/ocall lifecycle state
// machine (uninit → inited → entered; Guardian's orderliness property):
// secret-carrying data must not cross the enclave boundary before the
// configured init/declassify gate ran on that path. Requires lifecycle
// gates configured via the XML rule config (<lifecycle init="..."/>);
// with none configured the detector stays quiet.
type orderlinessDetector struct{}

func (orderlinessDetector) Name() string     { return "orderliness" }
func (orderlinessDetector) Rule() string     { return "PS-ORDER" }
func (orderlinessDetector) Severity() string { return "high" }
func (orderlinessDetector) DefaultOn() bool  { return false }

func (d orderlinessDetector) Detect(rc *Context) {
	if len(rc.InitFuncs) == 0 {
		return
	}
	for _, p := range rc.Res.Paths {
		firstInit := -1
		for _, iv := range p.Inits {
			if firstInit < 0 || iv.Seq < firstInit {
				firstInit = iv.Seq
			}
		}
		for _, oc := range p.Ocalls {
			if firstInit >= 0 && oc.Seq > firstInit {
				continue // the gate ran before this boundary crossing
			}
			value, ok := firstTainted(oc)
			if !ok {
				continue // public data may cross in any order
			}
			secret, tag := rc.secretNames(value)
			where := ocallWhere(oc)
			if rc.dedupe(fmt.Sprintf("OR|%s|%s", where, secret)) {
				continue
			}
			f := core.Finding{
				Kind:   core.OrderlinessLeak,
				Sink:   core.SinkOCall,
				Where:  where,
				Pos:    oc.Pos,
				Secret: secret,
				Tag:    tag,
				Value:  value,
				Path:   oc.PC,
			}
			f.Message = fmt.Sprintf(
				"orderliness violation: OCALL %s carries secret %s before the lifecycle init gate ran on this path",
				where, secret)
			rc.emit(d, f)
		}
	}
}

// firstTainted returns the first secret-tainted value crossing with the
// OCALL: scalar arguments first, then escaped pointer cells.
func firstTainted(oc symexec.SinkEvent) (sym.Expr, bool) {
	for _, a := range oc.Args {
		if !sym.TaintOf(a).IsBottom() {
			return a, true
		}
	}
	for _, pa := range oc.PtrArgs {
		for _, cell := range pa.Cells {
			if !sym.TaintOf(cell.Value).IsBottom() {
				return cell.Value, true
			}
		}
	}
	return nil, false
}

// accessPatternDetector flags secret-dependent control flow and
// secret-indexed memory accesses — the signals a controlled-channel
// attacker reads from page-granular access traces even when no data value
// ever reaches a sink.
type accessPatternDetector struct{}

func (accessPatternDetector) Name() string     { return "access-pattern" }
func (accessPatternDetector) Rule() string     { return "PS-ACCESS" }
func (accessPatternDetector) Severity() string { return "medium" }
func (accessPatternDetector) DefaultOn() bool  { return false }

func (d accessPatternDetector) Detect(rc *Context) {
	for _, p := range rc.Res.Paths {
		for _, ae := range p.SecretAccesses {
			secret, tag := rc.secretNames(ae.Index)
			where := fmt.Sprintf("%s@%s", ae.Display, ae.Pos)
			if rc.dedupe(fmt.Sprintf("AP|%s|%s", where, secret)) {
				continue
			}
			f := core.Finding{
				Kind:   core.AccessPatternLeak,
				Sink:   core.SinkMemory,
				Where:  where,
				Pos:    ae.Pos,
				Secret: secret,
				Tag:    tag,
				Value:  ae.Index,
				Path:   p.PC,
			}
			f.Message = fmt.Sprintf(
				"access-pattern leak: memory access %s is indexed by secret %s",
				where, secret)
			rc.emit(d, f)
		}
		for _, be := range p.SecretBranches {
			secret, tag := rc.secretNames(be.Cond)
			where := fmt.Sprintf("branch@%s", be.Pos)
			if rc.dedupe(fmt.Sprintf("AB|%s|%s", where, secret)) {
				continue
			}
			f := core.Finding{
				Kind:   core.AccessPatternLeak,
				Sink:   core.SinkBranch,
				Where:  where,
				Pos:    be.Pos,
				Secret: secret,
				Tag:    tag,
				Value:  be.Cond,
				Path:   p.PC,
			}
			f.Message = fmt.Sprintf(
				"access-pattern leak: branch at %s is steered by secret %s",
				be.Pos, secret)
			rc.emit(d, f)
		}
	}
}
