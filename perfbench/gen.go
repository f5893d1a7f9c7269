package main

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"

	"repro/internal/gpusim"
	"repro/internal/kernels"
)

// The seeded generators. The workload seed picks replay-sweep's
// architecture points and serve-mixed's request sequences; the program
// only ever sees the generated configurations and requests.

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// point is one architecture point of the design-space sweep.
type point struct {
	Name string
	Cfg  gpusim.Config
}

// pointStrata is the catalogue replay-sweep draws from: one stratum per
// axis the paper's studies vary (Fig. 4 channel counts, cache sizes, SM
// counts, the Fig. 5 presets). A draw takes one point per stratum, so
// every seed sweeps every axis and seeds differ only in where on each
// axis they land. Every catalogue point has a committed digest from a
// live (non-replay) run.
func pointStrata() [][]point {
	with := func(name string, edit func(*gpusim.Config)) point {
		c := gpusim.Base()
		edit(&c)
		c.Name = name
		return point{Name: name, Cfg: c}
	}
	preset := func(name string) point {
		c, err := gpusim.Preset(name)
		if err != nil {
			panic(err) // the names below are the package's own presets
		}
		return point{Name: name, Cfg: c}
	}
	var channels, caches, sms []point
	for _, n := range []int{4, 6, 12, 16} {
		channels = append(channels, with(fmt.Sprintf("ch%d", n), func(c *gpusim.Config) { c.MemChannels = n }))
	}
	for _, kb := range [][2]int{{16, 0}, {48, 0}, {0, 256}, {0, 768}, {16, 512}} {
		caches = append(caches, with(fmt.Sprintf("l1-%d-l2-%d", kb[0], kb[1]), func(c *gpusim.Config) {
			c.L1CacheKB, c.L2CacheKB = kb[0], kb[1]
		}))
	}
	for _, n := range []int{12, 16, 20, 24} {
		sms = append(sms, with(fmt.Sprintf("sm%d", n), func(c *gpusim.Config) { c.NumSMs = n }))
	}
	var presets []point
	for _, name := range []string{"base8", "gtx280", "gtx480-shared", "gtx480-l1"} {
		presets = append(presets, preset(name))
	}
	return [][]point{channels, caches, sms, presets}
}

// drawPoints picks one point per stratum, in a seeded order.
func drawPoints(seed uint64) []point {
	r := newRand(seed, 1)
	var out []point
	for _, stratum := range pointStrata() {
		out = append(out, stratum[r.IntN(len(stratum))])
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Request tiers as the generator knows them: where each request must be
// answered from, given a freshly restored store snapshot.
const (
	tierDisk     = "disk"     // first touch of a stored key
	tierCompute  = "compute"  // first touch of an unstored key: trace load, replay, store write
	tierMemo     = "memo"     // any later touch of a key
	tierProfiles = "profiles" // /profiles
	tierList     = "list"     // /benchmarks
)

// serveKey is one /characterize key at the test size class.
type serveKey struct {
	Bench    string
	Preset   string
	Channels int // 0 = no channel override
}

func (k serveKey) String() string { return k.Bench + "/" + k.pointName() }

// stored reports whether the snapshot holds the key's Stats: the
// snapshot has every preset at its own channel count.
func (k serveKey) stored() bool {
	return k.Channels == 0 || k.Channels == serveKey{Preset: k.Preset}.config().MemChannels
}

// norm is the key's identity in the memo and the store: an override
// equal to the preset's own channel count names the preset itself.
func (k serveKey) norm() serveKey {
	if k.stored() {
		k.Channels = 0
	}
	return k
}

// pointName names the key's configuration in the digest table.
func (k serveKey) pointName() string {
	k = k.norm()
	if k.Channels == 0 {
		return k.Preset
	}
	return fmt.Sprintf("%s/ch%d", k.Preset, k.Channels)
}

// config is the configuration the service resolves the key to.
func (k serveKey) config() gpusim.Config {
	cfg, err := gpusim.Preset(k.Preset)
	if err != nil {
		panic(err) // keys come from gpusim.PresetNames and figureSweeps
	}
	if k.Channels > 0 {
		cfg.MemChannels = k.Channels
	}
	return cfg
}

// path is the request URL path and query.
func (k serveKey) path() string {
	q := url.Values{"bench": {k.Bench}, "size": {"test"}, "config": {k.Preset}}
	if k.Channels > 0 {
		q.Set("channels", strconv.Itoa(k.Channels))
	}
	return "/characterize?" + q.Encode()
}

// serveRequest is one generated request with its expected tier.
type serveRequest struct {
	Path string
	Key  serveKey // zero for /profiles and /benchmarks
	Tier string
}

// figureSweep is what one figure of internal/experiments asks its
// Context for: per benchmark, the configurations its loop passes to
// Context.GPU, in loop order, and whether it first reads the CPU-profile
// sweep (Context.Profiles). TestFigureSweepsMatchExperiments runs each
// figure over the store a round leaves behind and checks that it hits
// exactly these keys and computes nothing.
type figureSweep struct {
	id       string
	cfgs     []serveKey // Bench empty
	profiles bool
}

// figureSweeps are the figures whose requests the service can express (a
// preset, optionally with a channel override, at the suite's benchmarks),
// in paper order. Left out: table1, table2, table4 and table5 ask for
// nothing; table3 characterizes incremental versions the service does not
// serve; pb sets fields no preset names; scaling sweeps every size class;
// conc runs the simulator directly.
var figureSweeps = func() []figureSweep {
	base := serveKey{Preset: "base"}
	ch := func(n int) serveKey { return serveKey{Preset: "base", Channels: n} }
	cpu := func(id string) figureSweep { return figureSweep{id: id, profiles: true} }
	return []figureSweep{
		{id: "fig1", cfgs: []serveKey{{Preset: "base8"}, base}},
		{id: "fig2", cfgs: []serveKey{base}},
		{id: "fig3", cfgs: []serveKey{base}},
		{id: "fig4", cfgs: []serveKey{ch(4), ch(6), ch(8)}},
		{id: "fig5", cfgs: []serveKey{{Preset: "gtx280"}, {Preset: "gtx480-shared"}, {Preset: "gtx480-l1"}}},
		cpu("fig6"), cpu("fig7"), cpu("fig8"), cpu("fig9"), cpu("fig10"), cpu("fig11"), cpu("fig12"),
		cpu("dwarfs"),
		{id: "divergence", cfgs: []serveKey{base}},
		{id: "correlate", cfgs: []serveKey{base}, profiles: true},
	}
}()

// serveClients is the closed loop's client count: simd callers (scripts,
// sweeps) each wait for their reply, and two matches the host's cores.
const serveClients = 2

// genServe builds each client's request sequence for one round. Each
// client is a script regenerating the paper's figures for its share of
// the suite through the service: it lists the benchmarks, then issues
// every figure's requests for its benchmarks, figure by figure. The seed
// orders each client's figures (the experiment runner finishes figures
// in no fixed order); within a figure the loop order is kept. The
// benchmarks are dealt to the clients in suite order, not by the seed,
// because a round lasts as long as its slower client and benchmarks
// differ in cost. Clients own disjoint benchmarks, so a key's first touch
// always completes before its next touch and the expected tier of every
// request is exact.
func genServe(seed uint64) [][]serveRequest {
	r := newRand(seed, 2)
	all := kernels.All()
	out := make([][]serveRequest, serveClients)
	for c := range out {
		order := r.Perm(len(figureSweeps))
		seq := []serveRequest{{Path: "/benchmarks", Tier: tierList}}
		seen := map[serveKey]bool{}
		for _, f := range order {
			fig := figureSweeps[f]
			if fig.profiles {
				seq = append(seq, serveRequest{Path: "/profiles?size=test", Tier: tierProfiles})
			}
			for i, b := range all {
				if i%serveClients != c {
					continue
				}
				for _, k := range fig.cfgs {
					k.Bench = b.Abbrev
					q := serveRequest{Path: k.path(), Key: k}
					n := k.norm()
					switch {
					case seen[n]:
						q.Tier = tierMemo
					case k.stored():
						q.Tier = tierDisk
					default:
						q.Tier = tierCompute
					}
					seen[n] = true
					seq = append(seq, q)
				}
			}
		}
		out[c] = seq
	}
	return out
}

// serveKeys lists every distinct key a round can ask for at one
// benchmark: the snapshot's presets and the figures' configurations.
func serveKeys(bench string) []serveKey {
	seen := map[serveKey]bool{}
	var out []serveKey
	add := func(k serveKey) {
		k.Bench = bench
		if k = k.norm(); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, name := range gpusim.PresetNames() {
		add(serveKey{Preset: name})
	}
	for _, f := range figureSweeps {
		for _, k := range f.cfgs {
			add(k)
		}
	}
	return out
}
