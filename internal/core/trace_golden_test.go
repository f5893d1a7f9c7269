package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sizes"
)

// traceDigest hashes everything a RunTrace carries into replay and the
// artifact store: per launch the kernel name and geometry, then every
// warp's stream bytes, and the invalid reason.
func traceDigest(rt *gpusim.RunTrace) string {
	h := sha256.New()
	var n [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	_, launches, invalid := rt.Export()
	put(uint64(len(launches)))
	for _, lt := range launches {
		put(uint64(len(lt.Kernel.Name)))
		h.Write([]byte(lt.Kernel.Name))
		put(uint64(lt.Launch.Grid))
		put(uint64(lt.Launch.Block))
		put(uint64(len(lt.Warps)))
		for _, w := range lt.Warps {
			put(uint64(len(w.Data)))
			h.Write(w.Data)
		}
	}
	put(uint64(len(invalid)))
	h.Write([]byte(invalid))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenTraceSHA256 pins every benchmark's test-size trace captured on
// base. The digests were recorded from the coupled capture (recording
// inside the timing simulator's event loop) before capture became
// functional-first; the persisted trace format and store.EncodingVersion
// are unchanged, so stores written by either capture stay valid.
var goldenTraceSHA256 = map[string]string{
	"BP":   "cba11dd59fe50bb10716f8cb4281452c5143122de701dd2ae49de1bb3c011b26",
	"BFS":  "9123078ebcf3f1bec982880bfde61d4dceb6aac9e4566cf8f86ffbd78c6cc1f0",
	"CFD":  "8db3c2ffed7b10e65fe3dd05603aea379257adb3d5a70ac16b926c1fc61ceef8",
	"HW":   "65e6dc08d9b98fc3ffa614ad9da731bd5396ff1097655119397239733e4c490d",
	"HS":   "8058cd4a53b886b553074400f3b5113328cd12ec60c7c7b306b19d734d6ba342",
	"KM":   "2c352a561a70bff55246e3901de75c785d0b5e035ba315d996fdea592400cbbb",
	"LC":   "53d3d71068a865c8a9036e854fd548072a8ff24829cb2a51db5a4a944de91489",
	"LUD":  "e19cd6ecb771e2dcd4a1a23a0cecb39bca35148b1e9ecdf3b0445c4c4ac122fa",
	"MUM":  "e81d5c6ec17cb1bb8157dc97f7a26960b68293277d9f5ab82377ebc9ae748469",
	"NW":   "831efa9ca81f396dd3cf1458febda71e9047d5234e5e7503439553b69f4ba3fa",
	"SRAD": "8f5ed4f70a438ec8b99b1af017a92725b07dc26615ddf70ee4c1f9d042926101",
	"SC":   "a42ad7305fc0b9a996cf4adcb63773f5df4acd025f5c01aea2354e32d4524688",
}

// TestCaptureTraceGolden asserts capture reproduces the pinned trace
// bytes for every benchmark.
func TestCaptureTraceGolden(t *testing.T) {
	for _, b := range kernels.All() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			_, rt, err := core.CaptureGPUAt(b, sizes.Test, gpusim.Base(), false)
			if err != nil {
				t.Fatal(err)
			}
			got := traceDigest(rt)
			want, ok := goldenTraceSHA256[b.Abbrev]
			if !ok {
				t.Fatalf("no golden digest; capture digest %s", got)
			}
			if got != want {
				t.Errorf("trace digest %s, golden %s", got, want)
			}
		})
	}
}

// TestCaptureStatsMatchLive is the capture leg of the differential:
// capture prices each launch from its recording, and the resulting Stats
// must deeply equal a live (non-capturing) run on every configuration
// the experiments capture under.
func TestCaptureStatsMatchLive(t *testing.T) {
	for _, b := range kernels.All() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range []gpusim.Config{gpusim.Base(), gpusim.Base8SM(), gpusim.GTX480(gpusim.L1Bias)} {
				capSt, _, err := core.CaptureGPUAt(b, sizes.Test, cfg, true)
				if err != nil {
					t.Fatalf("%s capture: %v", cfg.Name, err)
				}
				live, err := core.CharacterizeGPUAt(b, sizes.Test, cfg, false)
				if err != nil {
					t.Fatalf("%s live: %v", cfg.Name, err)
				}
				if !reflect.DeepEqual(capSt, live) {
					t.Errorf("%s: capture stats diverge from live\n got: %+v\nwant: %+v", cfg.Name, capSt, live)
				}
			}
		})
	}
}
