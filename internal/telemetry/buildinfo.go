package telemetry

import (
	"runtime"
	"runtime/debug"
)

// BuildIdentity resolves the module version and VCS revision embedded at
// build time ("unknown" for what the build did not embed, as in plain
// `go test` binaries).
func BuildIdentity() (version, revision string) {
	version, revision = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	return version, revision
}

// RegisterBuildInfo registers the conventional `<name>` info gauge: a single
// always-1 sample whose labels carry the module version, the Go toolchain
// that built the binary, and the VCS revision when the build embedded one
// (BuildIdentity). Dashboards join it against rate metrics to attribute
// regressions to a deploy. A nil registry records nothing.
func RegisterBuildInfo(r *Registry, name string) {
	version, revision := BuildIdentity()
	r.GaugeVec(name, "Build information; value is always 1.",
		[]string{"version", "go_version", "revision"}).
		With(version, runtime.Version(), revision).Set(1)
}
