package detect

import (
	"context"
	"fmt"
	"strings"
	"time"

	"privacyscope/internal/core"
	"privacyscope/internal/ir"
	"privacyscope/internal/obs"
	"privacyscope/internal/symexec"
)

// Run analyzes one entry point of a lowered MiniC module with the selected
// detectors: one engine exploration shared by every detector. prog is
// read-only here, so concurrent Runs may share it (and the summary table in
// opts.Engine). The analysis is fail-soft: budget exhaustion, a Deadline
// expiry or a ctx cancellation degrade the report (partial Coverage,
// Inconclusive verdict when nothing was found on the explored paths)
// instead of returning an error. Errors are reserved for genuine failures
// such as an unknown entry point.
func Run(ctx context.Context, set Set, opts core.Options, prog *ir.Program, fn string, params []symexec.ParamSpec) (*core.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	o := obs.Or(opts.Observer)
	if opts.Engine.Obs == nil {
		opts.Engine.Obs = o
	}
	start := time.Now()
	o.Add("detect.runs", 1)
	o.Event("check.start", obs.F("function", fn))
	span := o.StartSpan("check")
	span.Annotate(obs.F("function", fn))
	defer span.End()

	sx := span.Child("symexec")
	engine := symexec.NewIR(prog, opts.Engine)
	res, err := engine.AnalyzeFunction(ctx, fn, params)
	if res != nil {
		sx.Annotate(
			obs.F("paths", fmt.Sprint(len(res.Paths))),
			obs.F("states", fmt.Sprint(res.States)))
	}
	sx.End()
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", fn, err)
	}
	report := &core.Report{
		Function: fn,
		Paths:    len(res.Paths),
		States:   res.States,
		Regions:  res.Regions,
		Secrets:  len(res.SecretSymbols),
		Coverage: res.Coverage,
		Warnings: res.Warnings,
	}
	rc := &Context{
		Replayer:  core.NewReplayer(o),
		Opts:      opts,
		File:      prog.Module,
		Res:       res,
		Report:    report,
		Obs:       o,
		InitFuncs: opts.Engine.InitFuncs,
	}
	for _, d := range set.Detectors() {
		ph := span.Child(d.Name())
		d.Detect(rc)
		ph.End()
	}
	// Accounted after the detectors: an exhausted pair budget truncates
	// coverage too (TruncPairBudget).
	if report.Coverage.Truncated {
		o.Add("check.degraded", 1)
		span.Annotate(obs.F("truncated", string(report.Coverage.Reason)))
		switch report.Coverage.Reason {
		case symexec.TruncCancelled, symexec.TruncDeadline:
			o.Add("check.cancelled", 1)
		case symexec.TruncInlineDepth:
			// A skipped call under-approximates the program itself:
			// obligations the elided callee carried went unchecked.
			o.Add("check.underapprox", 1)
		}
	}
	core.SortFindings(report.Findings)
	report.Duration = time.Since(start)
	packFindings := 0
	for _, f := range report.Findings {
		o.Add("core.findings."+f.Kind.String(), 1)
		switch f.Kind {
		case core.OcallPtrLeak, core.ErrCodeLeak, core.OrderlinessLeak, core.AccessPatternLeak:
			packFindings++
		}
	}
	if packFindings > 0 {
		o.Add("detect.findings", int64(packFindings))
	}
	span.Annotate(
		obs.F("detectors", strings.Join(set.Names(), ",")),
		obs.F("findings", fmt.Sprint(len(report.Findings))),
		obs.F("verdict", report.Verdict().String()))
	o.Event("check.done",
		obs.F("function", fn),
		obs.F("findings", fmt.Sprint(len(report.Findings))),
		obs.F("verdict", report.Verdict().String()))
	return report, nil
}
