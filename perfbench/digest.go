package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sizes"
	"repro/internal/workloads"
)

// digests is the committed reference every workload checks its outputs
// against. Every GPU entry comes from a live (non-replay) run with CPU
// validation on; regenerate with `perfbench -write-digests <file>`.
type digests struct {
	// GPU maps gpuDigestKey → statsDigest.
	GPU map[string]string `json:"gpu"`
	// CPU maps a workload label at medium → profileDigest.
	CPU map[string]string `json:"cpu"`
	// Profiles is the digest of the whole test-size profile sweep, as
	// /profiles returns it.
	Profiles string `json:"profiles_test"`

	// Pins are the suite totals results/*.txt are built from.
	LiveCycles  uint64 `json:"gpu_live_cycles"`
	LiveWInstrs uint64 `json:"gpu_live_warp_instrs"`
	CPUMemRefs  uint64 `json:"cpu_suite_mem_refs"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

func gpuDigestKey(bench string, size sizes.Class, point string) string {
	return bench + "@" + size.String() + "/" + point
}

// statsDigest hashes Stats with the configuration's display name cleared:
// the memo and the store key on configuration values, so one result is
// legitimately served under several names.
func statsDigest(st *gpusim.Stats) string {
	c := *st
	c.Config = ""
	if st.PerKernel != nil {
		c.PerKernel = make(map[string]*gpusim.Stats, len(st.PerKernel))
		for name, k := range st.PerKernel {
			kc := *k
			kc.Config = ""
			c.PerKernel[name] = &kc
		}
	}
	return hashJSON(&c)
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// checkGPU compares one characterization with its committed digest.
func (d *digests) checkGPU(bench string, size sizes.Class, point string, st *gpusim.Stats) error {
	key := gpuDigestKey(bench, size, point)
	want, ok := d.GPU[key]
	if !ok {
		return fmt.Errorf("%s: no committed digest", key)
	}
	if got := statsDigest(st); got != want {
		return fmt.Errorf("%s: stats digest %s, committed %s", key, got, want)
	}
	return nil
}

// checkProfiles compares one profile sweep with the committed digests:
// per workload at medium, as one sweep at test (what /profiles serves).
func (d *digests) checkProfiles(size sizes.Class, ps []*core.CPUProfile, r *result) uint64 {
	var memRefs uint64
	for _, p := range ps {
		memRefs += p.MemRefs
	}
	if size != sizes.Medium {
		var err error
		if got := hashJSON(ps); got != d.Profiles {
			err = fmt.Errorf("cpu profiles@%s: digest %s, committed %s", size, got, d.Profiles)
		}
		r.check(err)
		return memRefs
	}
	for _, p := range ps {
		var err error
		if got, want := hashJSON(p), d.CPU[p.Label()]; got != want {
			err = fmt.Errorf("cpu profile %s@medium: digest %s, committed %q", p.Label(), got, want)
		}
		r.check(err)
	}
	var err error
	if memRefs != d.CPUMemRefs {
		err = fmt.Errorf("cpu-suite: %d mem-refs, committed %d", memRefs, d.CPUMemRefs)
	}
	r.check(err)
	return memRefs
}

// writeDigests regenerates the committed reference from live runs.
func writeDigests(path string) error {
	d := &digests{GPU: map[string]string{}, CPU: map[string]string{}}
	live := func(b *kernels.Benchmark, size sizes.Class, name string, cfg gpusim.Config) (*gpusim.Stats, error) {
		st, err := core.CharacterizeGPUAt(b, size, cfg, true)
		if err != nil {
			return nil, err
		}
		d.GPU[gpuDigestKey(b.Abbrev, size, name)] = statsDigest(st)
		return st, nil
	}
	for _, b := range kernels.All() {
		st, err := live(b, sizes.Medium, "base", gpusim.Base())
		if err != nil {
			return err
		}
		d.LiveCycles += st.Cycles
		d.LiveWInstrs += st.WarpInstrs
		for _, stratum := range pointStrata() {
			for _, p := range stratum {
				if _, err := live(b, sizes.Medium, p.Name, p.Cfg); err != nil {
					return err
				}
			}
		}
		for _, k := range serveKeys(b.Abbrev) {
			if _, err := live(b, sizes.Test, k.pointName(), k.config()); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "digests: %s done\n", b.Abbrev)
	}
	for _, p := range core.CharacterizeCPUAllWorkersAt(workloads.All(), sizes.Medium, 0) {
		d.CPU[p.Label()] = hashJSON(p)
		d.CPUMemRefs += p.MemRefs
	}
	d.Profiles = hashJSON(core.CharacterizeCPUAllWorkersAt(workloads.All(), sizes.Test, 0))
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
