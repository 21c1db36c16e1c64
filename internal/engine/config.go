package engine

import (
	"fmt"

	"sfi/internal/avp"
	"sfi/internal/proc"
)

// Config parameterizes one injection backend. It is the wire-serializable
// runner description (dist.CampaignSpec embeds it), so every field must
// survive a JSON round-trip.
type Config struct {
	// Backend selects the registered engine backend by name; "" means
	// DefaultBackend ("p6lite", the latch-accurate core model).
	Backend string `json:",omitempty"`

	Proc proc.Config
	AVP  avp.Config

	// Window is the post-injection observation budget in cycles. The
	// paper clocks 500,000 cycles per injection; the default here is
	// smaller with quiesce-based early exit (see the ablation bench).
	Window int

	// QuiesceExit ends an injection run early once this many consecutive
	// verification barriers pass cleanly with no new error activity
	// between them. 0 disables early exit (the paper's fixed-window
	// behaviour).
	QuiesceExit int

	// CheckersOn masks (false) or enables (true) every hardware checker —
	// the paper's Table 3 Raw-vs-Check configurations.
	CheckersOn bool

	// RecoveryOn disables the RUT when false (ablation).
	RecoveryOn bool

	// Mode selects toggle or sticky injection; StickyCycles bounds a
	// sticky fault's lifetime (0 = permanent).
	Mode         Mode
	StickyCycles int

	// SpanBits > 1 injects multi-bit upsets: each injection flips
	// SpanBits adjacent latch bits (clipped at the population edge).
	SpanBits int

	// BatchLanes bounds the simulation-lane word width a batch-capable
	// backend (BatchBackend) uses per pass, including the golden lane:
	// 64 packs 63 faults per model evaluation, 1 forces the scalar
	// one-injection-per-pass path, 0 means the backend's maximum (64).
	// Scalar backends ignore it.
	BatchLanes int `json:",omitempty"`

	// Awan parameterizes the gate-level "awan" backend; other backends
	// ignore it.
	Awan AwanConfig `json:",omitempty"`
}

// AwanConfig sizes the gate-level backend's design under test: Lanes
// independent checked-ALU macros (internal/awan.BuildCheckedALU) of Width
// bits each, driven in lockstep by a deterministic operand stream. The
// injectable population is Lanes × (3·Width + 2) latch bits.
type AwanConfig struct {
	// Width is the ALU operand width in bits (default 16, max 64).
	Width int `json:",omitempty"`
	// Lanes is the number of checked-ALU instances (default 32, max
	// MaxAwanLanes, and at most MaxAwanBits of population).
	Lanes int `json:",omitempty"`
}

// Bounds on the gate-level design. Its size arrives off the wire and the
// backend builds Lanes ALUs of ~30 gates per operand bit before it injects
// anything, so the size is checked before a netlist node exists.
const (
	MaxAwanLanes = 1024
	MaxAwanBits  = 1 << 16
)

// Sized returns a with the defaults filled in, or an error naming the field
// that puts the design out of bounds. It is the one place the defaults and
// the bounds are spelled: Config.Validate, the awan backend's constructor
// and its census all call it.
func (a AwanConfig) Sized() (AwanConfig, error) {
	if a.Width == 0 {
		a.Width = 16
	}
	if a.Lanes == 0 {
		a.Lanes = 32
	}
	if a.Width < 1 || a.Width > 64 {
		return a, fmt.Errorf("engine: Awan.Width %d out of range [1,64]", a.Width)
	}
	if a.Lanes < 1 || a.Lanes > MaxAwanLanes {
		return a, fmt.Errorf("engine: Awan.Lanes %d out of range [1,%d]", a.Lanes, MaxAwanLanes)
	}
	if bits := a.Lanes * (3*a.Width + 2); bits > MaxAwanBits {
		return a, fmt.Errorf("engine: Awan.Lanes %d x Width %d is a population of %d latch bits, over %d",
			a.Lanes, a.Width, bits, MaxAwanBits)
	}
	return a, nil
}

// Validate rejects a config no backend can be built from, naming the field.
// A config arrives off the wire (dist.CampaignSpec embeds it), where a
// missing object decodes to zeros, so the server and the coordinator call
// this before anything is built from one. Proc is checked for the backend
// that reads it; Awan is a size, so it is bounded whichever backend is
// named; AVP is checked by the backends' own constructors, which return
// errors.
func (c Config) Validate() error {
	if c.Window < 1 {
		return fmt.Errorf("engine: Window %d < 1", c.Window)
	}
	if c.Mode != Toggle && c.Mode != Sticky {
		return fmt.Errorf("engine: Mode %d is neither toggle (%d) nor sticky (%d)", c.Mode, Toggle, Sticky)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"QuiesceExit", c.QuiesceExit}, {"StickyCycles", c.StickyCycles}, {"SpanBits", c.SpanBits}, {"BatchLanes", c.BatchLanes},
	} {
		if f.v < 0 {
			return fmt.Errorf("engine: %s %d < 0", f.name, f.v)
		}
	}
	if _, err := c.Awan.Sized(); err != nil {
		return err
	}
	if Resolve(c.Backend) == DefaultBackend {
		if err := c.Proc.Validate(); err != nil {
			return fmt.Errorf("engine: Proc.%w", err)
		}
	}
	return nil
}

// DefaultConfig returns the standard SFI configuration (the p6lite core
// model under the AVP workload).
func DefaultConfig() Config {
	return Config{
		Proc:        proc.DefaultConfig(),
		AVP:         avp.DefaultConfig(),
		Window:      50_000,
		QuiesceExit: 2,
		CheckersOn:  true,
		RecoveryOn:  true,
		Mode:        Toggle,
	}
}
