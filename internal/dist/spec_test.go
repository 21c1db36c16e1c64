package dist

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"sfi/internal/core"
	"sfi/internal/engine"
)

// specFromFlags parses args the way a command does: register the campaign
// flags, parse, build.
func specFromFlags(t *testing.T, defaultFlips int, args ...string) (CampaignSpec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := CampaignFlags(fs, defaultFlips)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return build()
}

// TestCampaignFlags is the one flag→spec translation, flag by flag: each
// campaign flag sets exactly the spec field listed here and nothing else,
// and a flag registered without a row fails the test.
func TestCampaignFlags(t *testing.T) {
	def := CampaignSpec{Runner: core.DefaultRunnerConfig(), Seed: 1, Flips: 1000}
	rows := map[string]struct {
		args []string
		set  func(*CampaignSpec)
	}{
		"flips":        {[]string{"-flips", "77"}, func(s *CampaignSpec) { s.Flips = 77 }},
		"seed":         {[]string{"-seed", "9"}, func(s *CampaignSpec) { s.Seed = 9 }},
		"backend":      {[]string{"-backend", "awan"}, func(s *CampaignSpec) { s.Runner.Backend = "awan" }},
		"lanes":        {[]string{"-lanes", "8"}, func(s *CampaignSpec) { s.Runner.BatchLanes = 8 }},
		"unit":         {[]string{"-unit", "FXU"}, func(s *CampaignSpec) { s.Filter = FilterSpec{Kind: "unit", Arg: "FXU"} }},
		"type":         {[]string{"-type", "FUNC"}, func(s *CampaignSpec) { s.Filter = FilterSpec{Kind: "type", Arg: "FUNC"} }},
		"macro":        {[]string{"-macro", "lsu.stq"}, func(s *CampaignSpec) { s.Filter = FilterSpec{Kind: "prefix", Arg: "lsu.stq"} }},
		"sticky":       {[]string{"-sticky"}, func(s *CampaignSpec) { s.Runner.Mode = engine.Sticky }},
		"duration":     {[]string{"-sticky", "-duration", "200"}, func(s *CampaignSpec) { s.Runner.Mode, s.Runner.StickyCycles = engine.Sticky, 200 }},
		"span":         {[]string{"-span", "3"}, func(s *CampaignSpec) { s.Runner.SpanBits = 3 }},
		"raw":          {[]string{"-raw"}, func(s *CampaignSpec) { s.Runner.CheckersOn = false }},
		"no-recovery":  {[]string{"-no-recovery"}, func(s *CampaignSpec) { s.Runner.RecoveryOn = false }},
		"window":       {[]string{"-window", "20000"}, func(s *CampaignSpec) { s.Runner.Window = 20000 }},
		"fixed-window": {[]string{"-fixed-window"}, func(s *CampaignSpec) { s.Runner.QuiesceExit = 0 }},
		"nest": {[]string{"-nest", "-unit", "NEST"}, func(s *CampaignSpec) {
			s.Runner.Proc.EnableNest = true
			s.Filter = FilterSpec{Kind: "unit", Arg: "NEST"}
		}},
		"margin":     {[]string{"-margin", "5"}, func(s *CampaignSpec) { s.Stop = core.StopConfig{TargetMargin: 0.05, Confidence: 0.95} }},
		"confidence": {[]string{"-margin", "5", "-confidence", "0.9"}, func(s *CampaignSpec) { s.Stop = core.StopConfig{TargetMargin: 0.05, Confidence: 0.9} }},
		"stop-on-converge": {[]string{"-margin", "5", "-stop-on-converge"}, func(s *CampaignSpec) {
			s.Stop = core.StopConfig{TargetMargin: 0.05, Confidence: 0.95, StopOnConverge: true}
		}},
		"allocate":     {[]string{"-allocate", "neyman"}, func(s *CampaignSpec) { s.Alloc.Mode = core.AllocNeyman }},
		"alloc-epochs": {[]string{"-allocate", "neyman", "-alloc-epochs", "8"}, func(s *CampaignSpec) { s.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: 8} }},
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	CampaignFlags(fs, 1)
	fs.VisitAll(func(f *flag.Flag) {
		row, ok := rows[f.Name]
		if !ok {
			t.Errorf("campaign flag -%s has no row in this table", f.Name)
			return
		}
		want := def
		row.set(&want)
		got, err := specFromFlags(t, 1000, row.args...)
		if err != nil {
			t.Errorf("%v: %v", row.args, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%v:\n got %+v\nwant %+v", row.args, got, want)
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("table row %q names no registered flag", name)
	}

	// Values that mean "as the default" leave the spec — and with it the
	// wire form, the journal header and the report's digest — untouched.
	got, err := specFromFlags(t, 1000, "-allocate", "uniform", "-alloc-epochs", "8", "-span", "1",
		"-lanes", "0", "-window", "0", "-duration", "200", "-confidence", "0.5")
	if err != nil || !reflect.DeepEqual(got, def) {
		t.Errorf("default-valued flags gave %+v (err %v), want the default spec", got, err)
	}
}

// TestCampaignFlagsWireBytes holds the translation to the bytes the commands
// put on the wire before it existed (json.Marshal of the spec sfi-coord and
// sfi -dist built at the parent commit, recorded there): a spec's encoding
// feeds the server's dedup digest, so it must survive an upgrade.
func TestCampaignFlagsWireBytes(t *testing.T) {
	const runner = `{"Proc":{"MemBytes":262144,"MissPenalty":12,"ERATPenalty":6,"HangLimit":2048,"RecoveryCycles":32,"RetryLimit":3,"EnableNest":false,"NestPenalty":24},"AVP":{"Seed":24301,"Testcases":12,"BodyOps":40,"MemBytes":262144,"Weights":{"Load":0.265,"Store":0.08,"Fixed":0.075,"Float":0,"Cmp":0.05,"Branch":0.065},"SkipEpilogue":false},"Window":50000,"QuiesceExit":2,"CheckersOn":true,"RecoveryOn":true,"Mode":%d,"StickyCycles":%d,"SpanBits":0,"Awan":{}}`
	fill := func(mode, sticky int) string { return fmt.Sprintf(runner, mode, sticky) }
	for _, tc := range []struct {
		flips int
		args  []string
		want  string
	}{
		{10000, nil,
			`{"runner":` + fill(1, 0) + `,"seed":1,"flips":10000,"filter":{},"stop":{}}`},
		{1000, []string{"-flips", "10", "-unit", "LSU", "-sticky", "-duration", "200"},
			`{"runner":` + fill(2, 200) + `,"seed":1,"flips":10,"filter":{"kind":"unit","arg":"LSU"},"stop":{}}`},
		{10000, []string{"-flips", "20000", "-margin", "2", "-stop-on-converge", "-allocate", "neyman"},
			`{"runner":` + fill(1, 0) + `,"seed":1,"flips":20000,"filter":{},"stop":{"target_margin":0.02,"confidence":0.95,"stop_on_converge":true},"alloc":{"mode":"neyman"}}`},
	} {
		spec, err := specFromFlags(t, tc.flips, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		got, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%v marshals to\n%s\nwant the parent commit's\n%s", tc.args, got, tc.want)
		}
	}
}

// TestCampaignFlagsRefuse: what no command may start, each refused by the
// one translation with an error that names the problem.
func TestCampaignFlagsRefuse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-unit", "FXU", "-macro", "lsu.stq"}, "at most one of -unit, -type, -macro"},
		{[]string{"-type", "FUNC", "-unit", "FXU"}, "at most one of -unit, -type, -macro"},
		{[]string{"-backend", "bogus"}, `unknown backend "bogus"`},
		{[]string{"-type", "NOSUCH"}, `unknown latch type "NOSUCH"`},
		{[]string{"-unit", "NOSUCH"}, `unknown unit "NOSUCH"`},
		{[]string{"-unit", "NEST"}, "NEST needs -nest"},
		{[]string{"-backend", "awan", "-unit", "FXU"}, `unknown unit "FXU"`},
		{[]string{"-stop-on-converge"}, "stop-on-converge needs a margin"},
		{[]string{"-allocate", "bogus"}, `unknown allocation mode "bogus"`},
		{[]string{"-flips", "0"}, "at least one flip"},
		{[]string{"-sticky", "-duration", "-1"}, "StickyCycles"},
	} {
		if spec, err := specFromFlags(t, 10000, tc.args...); err == nil {
			t.Errorf("%v accepted: %+v", tc.args, spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not say %q", tc.args, err, tc.want)
		}
	}
}

// TestCampaignFlagsBoundFlips: sampling is without replacement, so the flags
// refuse a -flips past the population their filter leaves, whichever filter
// it is, naming that population: before any command builds a runner (or, in
// a fleet, every worker builds one and fails its shard).
func TestCampaignFlagsBoundFlips(t *testing.T) {
	db, err := engine.Census(core.DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	fpu, _ := FilterSpec{Kind: "unit", Arg: "FPU"}.Filter()
	pop, all := db.CountBits(fpu), db.CountBits(nil)
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-macro", "zzz", "-flips", "10"}, "campaign of 10 flips exceeds the filtered population of 0 bits"},
		{[]string{"-unit", "FPU", "-flips", fmt.Sprint(pop + 1)}, fmt.Sprintf("exceeds the filtered population of %d bits", pop)},
		{[]string{"-unit", "FPU", "-flips", fmt.Sprint(pop)}, ""},
		{[]string{"-type", "MODE", "-flips", "12"}, ""},
		{[]string{"-flips", fmt.Sprint(all + 1)}, fmt.Sprintf("filtered population of %d bits", all)},
	} {
		if _, err := specFromFlags(t, 1000, tc.args...); (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q (empty: none)", tc.args, err, tc.want)
		}
	}
}

// TestValidateIsTheOneCheck: a spec Validate refuses is refused by
// NewCoordinator with the same error, and one it accepts is one
// NewCoordinator builds — neither keeps a check list of its own.
func TestValidateIsTheOneCheck(t *testing.T) {
	for name, mut := range map[string]func(*CampaignSpec){
		"no flips":           func(s *CampaignSpec) { s.Flips = 0 },
		"unknown backend":    func(s *CampaignSpec) { s.Runner.Backend = "bogus" },
		"zero runner":        func(s *CampaignSpec) { s.Runner = core.RunnerConfig{} },
		"unknown filter":     func(s *CampaignSpec) { s.Filter.Kind = "bogus" },
		"unknown latch type": func(s *CampaignSpec) { s.Filter = FilterSpec{Kind: "type", Arg: "NOSUCH"} },
		"unknown alloc mode": func(s *CampaignSpec) { s.Alloc.Mode = "bogus" },
		"a billion ALUs":     func(s *CampaignSpec) { s.Runner.Backend = "awan"; s.Runner.Awan.Lanes = 1_000_000_000 },
		"stop without margin": func(s *CampaignSpec) {
			s.Stop.StopOnConverge = true
		},
	} {
		spec := testSpec()
		mut(&spec)
		want := spec.Validate()
		if want == nil {
			t.Errorf("%s: Validate accepted %+v", name, spec)
			continue
		}
		c, err := NewCoordinator(CoordConfig{Campaign: spec})
		if err == nil {
			c.Close()
			t.Errorf("%s: NewCoordinator built what Validate refuses (%v)", name, want)
		} else if err.Error() != want.Error() {
			t.Errorf("%s: NewCoordinator says %q, Validate %q", name, err, want)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("Validate refused the test spec: %v", err)
	}
}

// TestFlagSpecsRunTheSameEverywhere: what the flags spell runs to the same
// report as a whole campaign (CampaignConfig(nil), the local sfi path) and
// cut into shards through a coordinator and HTTP workers (sfi-coord, sfi
// -dist), for a fault model sfi-coord could not be asked for before the
// flags were shared and for an adaptive Neyman campaign, whose stopping rule
// and allocation only the whole-campaign configuration carries.
func TestFlagSpecsRunTheSameEverywhere(t *testing.T) {
	for _, args := range [][]string{
		{"-flips", "48", "-seed", "3", "-sticky", "-duration", "200", "-raw", "-unit", "LSU"},
		{"-flips", "600", "-seed", "3", "-unit", "FXU", "-margin", "20", "-stop-on-converge", "-allocate", "neyman"},
	} {
		spec, err := specFromFlags(t, 1000, args...)
		if err != nil {
			t.Fatal(err)
		}
		spec.KeepResults = true
		ccfg, err := spec.CampaignConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		local, err := core.RunCampaign(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 16})
		fleet := runFleet(t, c, srv.URL, 2, WorkerConfig{})
		want, _ := json.Marshal(local)
		got, _ := json.Marshal(fleet)
		if string(got) != string(want) {
			t.Errorf("%v: fleet report differs from the local one\nfleet %s\nlocal %s", args, got, want)
		}
	}
}
