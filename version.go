package privacyscope

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"privacyscope/internal/symexec"
)

// EngineVersion identifies the analysis semantics of this build. Bump it
// whenever a change can alter what the analyzer reports for the same input
// (new checks, changed defaults, IR or engine semantics): the version feeds
// the engine fingerprint, and the fingerprint keys every cached result, so
// a semantics change automatically invalidates stale cache entries.
const EngineVersion = "0.7.2"

// Fingerprint returns a short stable hash identifying the engine semantics
// of this build: the engine version plus the default exploration bounds.
// The privacyscoped result cache folds it into every cache key, and the
// CLI's -json envelope reports it, so a result can always be traced back to
// the engine that produced it.
func Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "privacyscope/%s loop=%d paths=%d steps=%d inline=%d",
		EngineVersion,
		symexec.DefaultLoopBound, symexec.DefaultMaxPaths,
		symexec.DefaultMaxSteps, symexec.DefaultInlineDepth)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// BuildInfo describes the analyzer build: the -version output of the CLIs.
type BuildInfo struct {
	// Version is EngineVersion.
	Version string `json:"version"`
	// Fingerprint is the cache-key engine fingerprint (see Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// GoVersion is the toolchain that compiled this binary.
	GoVersion string `json:"goVersion"`
}

// Build returns this binary's build information.
func Build() BuildInfo {
	return BuildInfo{
		Version:     EngineVersion,
		Fingerprint: Fingerprint(),
		GoVersion:   runtime.Version(),
	}
}

// String renders the build info as the one-line -version output.
func (b BuildInfo) String() string {
	return fmt.Sprintf("privacyscope %s (engine fingerprint %s, %s)",
		b.Version, b.Fingerprint, b.GoVersion)
}
