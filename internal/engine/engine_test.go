package engine

import (
	"sort"
	"strings"
	"testing"
)

func TestResolveDefaultsEmptyName(t *testing.T) {
	if got := Resolve(""); got != DefaultBackend {
		t.Fatalf("Resolve(\"\") = %q, want %q", got, DefaultBackend)
	}
	if got := Resolve("awan"); got != "awan" {
		t.Fatalf("Resolve(\"awan\") = %q", got)
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	Register("engine-test-dup", func(Config) (Backend, error) { return nil, nil })
	mustPanic("duplicate Register", func() {
		Register("engine-test-dup", func(Config) (Backend, error) { return nil, nil })
	})
	mustPanic("empty-name Register", func() {
		Register("", func(Config) (Backend, error) { return nil, nil })
	})
	mustPanic("nil-factory Register", func() {
		Register("engine-test-nil", nil)
	})
}

func TestBackendsSorted(t *testing.T) {
	names := Backends()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Backends() not sorted: %v", names)
	}
}

func TestNewUnknownBackend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = "no-such-machine"
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an unregistered backend")
	} else if !strings.Contains(err.Error(), "no-such-machine") {
		t.Fatalf("error does not name the backend: %v", err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		Vanished:  "vanished",
		Corrected: "corrected",
		Hang:      "hang",
		Checkstop: "checkstop",
		SDC:       "sdc",
	}
	if len(Outcomes) != len(want) {
		t.Fatalf("Outcomes has %d entries, want %d", len(Outcomes), len(want))
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
	if s := Outcome(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown outcome string %q does not carry the value", s)
	}
}

func TestSplitmix64KnownVector(t *testing.T) {
	// Reference values for the splitmix64 finalizer; the campaign sampler,
	// phase/delay schedule and awan stimulus all share this function, so
	// its output is load-bearing for cross-version reproducibility.
	if got := Splitmix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Splitmix64(0) = %#x", got)
	}
	if Splitmix64(1) == Splitmix64(2) {
		t.Fatal("splitmix64 collided on adjacent inputs")
	}
}

// TestConfigValidate: a config decoded from an empty or partial JSON object
// is refused with the offending field named; the p6lite model's fields are
// read only for the backend that uses them.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // "" = accepted
	}{
		{"zero", func(c *Config) { *c = Config{} }, "Window"},
		{"zero awan", func(c *Config) { *c = Config{Backend: "awan"} }, "Window"},
		{"mode", func(c *Config) { c.Mode = 0 }, "Mode"},
		{"negative span", func(c *Config) { c.SpanBits = -1 }, "SpanBits"},
		{"no memory", func(c *Config) { c.Proc.MemBytes = 0 }, "Proc.MemBytes"},
		{"odd memory", func(c *Config) { c.Proc.MemBytes = 3000 }, "Proc.MemBytes"},
		{"no hang limit", func(c *Config) { c.Proc.HangLimit = 0 }, "Proc.HangLimit"},
		{"negative penalty", func(c *Config) { c.Proc.MissPenalty = -1 }, "Proc.MissPenalty"},
		{"awan ignores Proc", func(c *Config) { c.Backend = "awan"; c.Proc.MemBytes = 0 }, ""},
		{"awan defaults", func(c *Config) { c.Backend = "awan"; c.Awan = AwanConfig{} }, ""},
		{"awan largest", func(c *Config) { c.Awan = AwanConfig{Width: 62, Lanes: 348} }, ""},
		{"a billion ALUs", func(c *Config) { c.Backend = "awan"; c.Awan.Lanes = 1_000_000_000 }, "Awan.Lanes"},
		{"negative lanes", func(c *Config) { c.Awan.Lanes = -1 }, "Awan.Lanes"},
		{"wide ALU", func(c *Config) { c.Awan.Width = 65 }, "Awan.Width"},
		{"population", func(c *Config) { c.Awan = AwanConfig{Width: 64, Lanes: 1024} }, "population"},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestNewReportsFactoryPanic: a backend constructor that panics costs its
// caller an error, not the process.
func TestNewReportsFactoryPanic(t *testing.T) {
	Register("engine-test-panics", func(Config) (Backend, error) { panic("size 0 is not a power of two") })
	be, err := New(Config{Backend: "engine-test-panics"})
	if be != nil || err == nil || !strings.Contains(err.Error(), "size 0 is not a power of two") {
		t.Fatalf("New = %v, %v; want an error carrying the panic", be, err)
	}
}
