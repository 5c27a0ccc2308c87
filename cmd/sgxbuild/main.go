// Command sgxbuild is the PrivacyScope-gated enclave build pipeline of
// §V-C: it takes enclave C code (drafting the EDL interface if none is
// given), runs the nonreversibility analysis, and only when the module is
// clean "builds" it — loading it into the SGX simulator and emitting a
// deployment manifest with the enclave measurement. A module with
// violations fails the build with the full report, so leaky enclaves never
// reach deployment.
//
// Usage:
//
//	sgxbuild -c enclave.c [-edl enclave.edl] [-config rules.xml] \
//	         [-manifest out.json]
//
// The rule file picks the gating detectors: <enable name="timing"/> in its
// <detectors> block also refuses timing channels (§VIII-A).
//
// Exit status: 0 build succeeded, 2 analysis found violations, 1 errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"privacyscope"
	"privacyscope/internal/edl"
	"privacyscope/internal/minic"
	"privacyscope/internal/sgx"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgxbuild:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// Manifest is the deployment artifact: everything a relying party needs to
// attest the enclave and reconstruct what was audited.
type Manifest struct {
	Measurement string   `json:"measurement"`
	ECalls      []string `json:"ecalls"`
	OCalls      []string `json:"ocalls,omitempty"`
	Audited     bool     `json:"audited"`
	Findings    int      `json:"findings"`
	EDLInferred bool     `json:"edlInferred"`
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("sgxbuild", flag.ContinueOnError)
	var (
		cPath        = fs.String("c", "", "enclave C source (required)")
		edlPath      = fs.String("edl", "", "EDL interface (default: inferred from usage)")
		configPath   = fs.String("config", "", "XML rule file")
		manifestPath = fs.String("manifest", "", "write the deployment manifest to this file")
		seed         = fs.String("seed", "sgxbuild", "platform seed for the measurement run")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *cPath == "" {
		fs.Usage()
		return 1, fmt.Errorf("-c is required")
	}
	cSrc, err := os.ReadFile(*cPath)
	if err != nil {
		return 1, err
	}

	// Obtain the interface: read it, or draft it from usage (edlgen).
	var edlSrc string
	inferred := false
	if *edlPath != "" {
		raw, err := os.ReadFile(*edlPath)
		if err != nil {
			return 1, err
		}
		edlSrc = string(raw)
	} else {
		file, err := minic.Parse(string(cSrc))
		if err != nil {
			return 1, err
		}
		edlSrc, err = edl.GenerateEDL(file, nil)
		if err != nil {
			return 1, err
		}
		inferred = true
		fmt.Fprintf(out, "inferred EDL interface:\n%s\n", edlSrc)
	}

	// Audit.
	var opts []privacyscope.Option
	if *configPath != "" {
		cfg, err := os.ReadFile(*configPath)
		if err != nil {
			return 1, err
		}
		opts = append(opts, privacyscope.WithConfigXML(cfg))
	}
	report, err := privacyscope.AnalyzeEnclave(string(cSrc), edlSrc, opts...)
	if err != nil {
		return 1, err
	}
	if !report.Secure() {
		fmt.Fprintln(out, "BUILD REFUSED — nonreversibility violations:")
		fmt.Fprint(out, report.Render())
		return 2, nil
	}
	fmt.Fprintln(out, "audit clean: no nonreversibility violations")

	// Build: load into the simulator and measure.
	platform := sgx.NewPlatform([]byte(*seed))
	enclave, err := platform.LoadEnclave(string(cSrc), edlSrc)
	if err != nil {
		return 1, err
	}
	measurement := enclave.Measurement()
	iface := enclave.Interface()
	manifest := Manifest{
		Measurement: fmt.Sprintf("%x", measurement),
		Audited:     true,
		EDLInferred: inferred,
	}
	for _, sig := range iface.Trusted {
		manifest.ECalls = append(manifest.ECalls, sig.Name)
	}
	manifest.OCalls = iface.OCallNames()

	blob, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return 1, err
	}
	if *manifestPath != "" {
		if err := os.WriteFile(*manifestPath, append(blob, '\n'), 0o600); err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "manifest written to %s\n", *manifestPath)
	} else {
		fmt.Fprintf(out, "%s\n", blob)
	}
	fmt.Fprintf(out, "build ok, measurement %x…\n", measurement[:8])
	return 0, nil
}
