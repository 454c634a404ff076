package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"amoebasim/internal/panda"
)

// finiteAll reports whether every value is a finite number.
func finiteAll(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// mixFinite, shapeFinite and classFinite check every float a parsed spec
// holds.
func mixFinite(m Mix) bool { return finiteAll(m.RPC, m.Group, m.Read, m.Write) }

func shapeFinite(s LoadShape) bool { return finiteAll(s.Duty, s.Amplitude) }

func classFinite(c Class) bool {
	return finiteAll(c.OfferedLoad, c.Arrival.Shape) && mixFinite(c.Mix) && shapeFinite(c.Shape)
}

// TestSpecsRejectNonFinite: every rate, weight and shape parameter must be
// a finite number. NaN passes a sign check, since every comparison with it
// is false, and an infinite rate passes one too; an open loop at a NaN load
// would draw a negative mean gap and start one arrival per nanosecond.
func TestSpecsRejectNonFinite(t *testing.T) {
	parse := []struct {
		name string
		err  func() error
	}{
		{"load NaN", func() error { _, err := ParseLoads("NaN"); return err }},
		{"load Inf", func() error { _, err := ParseLoads("400,Inf"); return err }},
		{"mix weight NaN", func() error { _, err := ParseMix("rpc=NaN"); return err }},
		{"mix weight Inf", func() error { _, err := ParseMix("rpc=1,group=Inf"); return err }},
		{"class load NaN", func() error { _, err := ParseClasses("a:clients=2,load=NaN"); return err }},
		{"class load Inf", func() error { _, err := ParseClasses("a:clients=2,load=+Inf"); return err }},
		{"class mix NaN", func() error { _, err := ParseClasses("a:mix=rpc=NaN"); return err }},
		{"bursty duty NaN", func() error { _, err := ParseShape("bursty:1s:NaN"); return err }},
		{"bursty amplitude Inf", func() error { _, err := ParseShape("bursty:1s:0.5:Inf"); return err }},
		{"diurnal amplitude NaN", func() error { _, err := ParseShape("diurnal:1s:NaN"); return err }},
		{"gamma shape NaN", func() error { _, err := ParseArrivalSpec("gamma:NaN"); return err }},
	}
	for _, c := range parse {
		if err := c.err(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	base := quickCfg(panda.UserSpace, false).withDefaults()
	for _, c := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"offered load NaN", func(c *Config) { c.OfferedLoad = nan }},
		{"offered load Inf", func(c *Config) { c.OfferedLoad = inf }},
		{"mix weight NaN", func(c *Config) { c.Mix = Mix{Group: nan} }},
		{"bursty amplitude Inf", func(c *Config) { c.Shape = LoadShape{Kind: BurstyShape, Amplitude: inf} }},
		{"diurnal amplitude NaN", func(c *Config) { c.Shape = LoadShape{Kind: DiurnalShape, Amplitude: nan} }},
		{"class load NaN", func(c *Config) {
			c.OfferedLoad = 0
			c.Classes = []Class{{Name: "a", Clients: 2, OfferedLoad: nan}}
		}},
		{"class load Inf", func(c *Config) {
			c.OfferedLoad = 0
			c.Classes = []Class{{Name: "a", Clients: 2, OfferedLoad: inf}}
		}},
		{"total load Inf", func(c *Config) {
			c.OfferedLoad = inf
			c.Classes = []Class{{Name: "a", Clients: 2, OfferedLoad: 1}}
		}},
	} {
		cfg := base
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("Config.Validate: %s accepted", c.name)
		}
	}
}

// The fuzz targets below feed arbitrary text to each spec parser: none
// may panic, and a spec a parser accepts holds only finite numbers.

func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"rpc", "orca", "rpc=1,group=3", "read=0.8, write=0.2", "rpc=NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if m, err := ParseMix(s); err == nil && (!mixFinite(m) || m.validate() != nil) {
			t.Fatalf("ParseMix(%q) = %+v", s, m)
		}
	})
}

func FuzzParseSizeDist(f *testing.F) {
	for _, s := range []string{"fixed:256", "uniform:64-1024", "fixed:-1", "uniform:9-3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d, err := ParseSizeDist(s); err == nil && d.validate() != nil {
			t.Fatalf("ParseSizeDist(%q) = %+v", s, d)
		}
	})
}

func FuzzParseArrivalSpec(f *testing.F) {
	for _, s := range []string{"poisson", "fixed", "gamma:0.5", "weibull:0.55", "gamma:Inf"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if a, err := ParseArrivalSpec(s); err == nil && (!finiteAll(a.Shape) || a.validate() != nil) {
			t.Fatalf("ParseArrivalSpec(%q) = %+v", s, a)
		}
	})
}

func FuzzParseShape(f *testing.F) {
	for _, s := range []string{"steady", "bursty", "bursty:50ms:0.1:20", "bursty::0.5", "diurnal:2s:0.5", "diurnal:1s:NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if sh, err := ParseShape(s); err == nil && (!shapeFinite(sh) || sh.validate() != nil) {
			t.Fatalf("ParseShape(%q) = %+v", s, sh)
		}
	})
}

func FuzzParseClasses(f *testing.F) {
	for _, s := range []string{
		"fe:clients=6,load=500,mix=rpc,dist=fixed:128,slo=4ms",
		"batch:clients=4,load=300,mix=rpc=1+group=1,arrival=weibull:0.55,think=2ms;crawl:shape=bursty",
		"a:clients=2,load=NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.HasPrefix(strings.TrimSpace(s), "@") {
			return // a file path, not an inline spec
		}
		classes, err := ParseClasses(s)
		if err != nil {
			return
		}
		for _, c := range classes {
			if !classFinite(c) {
				t.Fatalf("ParseClasses(%q) holds %+v", s, c)
			}
		}
	})
}

func FuzzParseLoads(f *testing.F) {
	for _, s := range []string{"400,1300,2400", " 5 ", "1e3,2e3", "NaN", "Inf"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		loads, err := ParseLoads(s)
		if err != nil {
			return
		}
		for _, l := range loads {
			if !finiteAll(l) || l <= 0 {
				t.Fatalf("ParseLoads(%q) = %v", s, loads)
			}
		}
	})
}

func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"trace_version":1,"seed":3,"procs":4,"groups":1,"has_group":true,"warmup_ns":0,"window_ns":1000,` +
		`"loop":"open","classes":[{"name":"a","clients":2,"offered_ops_per_sec":400}],` +
		`"events":[{"t":5,"c":1,"k":0,"o":1,"s":256,"d":-1,"g":0}]}`))
	f.Add([]byte(`{"trace_version":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := ReadTrace(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, c := range tr.Classes {
			if !finiteAll(c.OfferedOps) {
				t.Fatalf("ReadTrace accepted class %+v", c)
			}
		}
	})
}
