package proc

import "sfi/internal/bits"

// Cache geometry helpers. Both caches are direct-mapped with 32-byte lines
// (four 64-bit dwords); tags are stored as tag<<1|valid in protected arrays.

func lineIndex(addr uint64, lines int) int { return int(addr>>5) & (lines - 1) }
func lineTag(addr uint64, lines int) uint64 {
	shift := 5
	for l := lines; l > 1; l >>= 1 {
		shift++
	}
	return addr >> uint(shift)
}
func dwordInLine(addr uint64) int { return int(addr>>3) & (lineWords - 1) }

// icLookup probes the instruction cache for the word at addr. ok=false on a
// miss. ECC-uncorrectable tag or data errors invalidate the line, post the
// IC UE checker and miss.
func (c *Core) icLookup(addr uint64) (word uint32, ok bool) {
	idx := lineIndex(addr, icLines)
	tw, res := c.ifu.icTag.Read(idx)
	if res == bits.ECCUncorrectable {
		c.ifu.icTag.Write(idx, 0)
		c.fail(ChkIFUICUE)
		return 0, false
	}
	if tw&1 == 0 || tw>>1 != lineTag(addr, icLines) {
		return 0, false
	}
	dw, res := c.ifu.icData.Read(idx*lineWords + dwordInLine(addr))
	if res == bits.ECCUncorrectable {
		c.ifu.icTag.Write(idx, 0)
		c.fail(ChkIFUICUE)
		return 0, false
	}
	if addr&4 != 0 {
		return uint32(dw >> 32), true
	}
	return uint32(dw), true
}

// icRefill installs the line containing addr from memory.
func (c *Core) icRefill(addr uint64) {
	idx := lineIndex(addr, icLines)
	base := addr &^ 31
	for i := 0; i < lineWords; i++ {
		c.ifu.icData.Write(idx*lineWords+i, c.mem.Read64(base+uint64(8*i)))
	}
	c.ifu.icTag.Write(idx, lineTag(addr, icLines)<<1|1)
}

// dcLookup probes the data cache for the dword at addr.
func (c *Core) dcLookup(addr uint64) (dw uint64, ok bool) {
	idx := lineIndex(addr, dcLines)
	tw, res := c.lsu.dcTag.Read(idx)
	if res == bits.ECCUncorrectable {
		c.lsu.dcTag.Write(idx, 0)
		c.fail(ChkLSUDCUE)
		return 0, false
	}
	if tw&1 == 0 || tw>>1 != lineTag(addr, dcLines) {
		return 0, false
	}
	dw, res = c.lsu.dcData.Read(idx*lineWords + dwordInLine(addr))
	if res == bits.ECCUncorrectable {
		c.lsu.dcTag.Write(idx, 0)
		c.fail(ChkLSUDCUE)
		return 0, false
	}
	return dw, true
}

// dcRefill installs the line containing addr from memory.
func (c *Core) dcRefill(addr uint64) {
	idx := lineIndex(addr, dcLines)
	base := addr &^ 31
	for i := 0; i < lineWords; i++ {
		c.lsu.dcData.Write(idx*lineWords+i, c.mem.Read64(base+uint64(8*i)))
	}
	c.lsu.dcTag.Write(idx, lineTag(addr, dcLines)<<1|1)
}

// dcUpdate write-through-updates the cached copy of the dword at addr if the
// line is present (stores never allocate).
func (c *Core) dcUpdate(addr, dw uint64) {
	idx := lineIndex(addr, dcLines)
	tw, res := c.lsu.dcTag.Read(idx)
	if res == bits.ECCUncorrectable || tw&1 == 0 || tw>>1 != lineTag(addr, dcLines) {
		return
	}
	c.lsu.dcData.Write(idx*lineWords+dwordInLine(addr), dw)
}

// eratParity computes an ERAT entry's stored parity under the current LSU
// polarity configuration.
func (c *Core) eratParity(vpn, ppn uint64) uint64 {
	return parity64(vpn) ^ parity64(ppn) ^ c.polarity(uLSU, 0)
}

// eratLookup translates effective address ea. ok=false means no usable
// entry (a reload is required). A parity-bad matching entry posts the ERAT
// checker; when the checker is masked the (possibly corrupt) translation is
// used anyway.
func (c *Core) eratLookup(ea uint64) (pa uint64, ok bool) {
	vpn := (ea >> 12) & ((1 << 28) - 1)
	for i := 0; i < eratSize; i++ {
		if c.lsu.eratCtl.Get(i)&1 == 0 {
			continue
		}
		if c.lsu.eratVPN.Get(i) != vpn {
			continue
		}
		ppn := c.lsu.eratPPN.Get(i)
		if c.eratParity(vpn, ppn) != c.lsu.eratPar.Entry(i).Get() {
			if c.fail(ChkLSUERATPar) {
				return 0, false
			}
		}
		return ppn<<12 | ea&0xfff, true
	}
	return 0, false
}

// eratReloadDone installs the translation for ea (real mode: identity) at
// the replacement pointer.
func (c *Core) eratReloadDone(ea uint64) {
	vpn := (ea >> 12) & ((1 << 28) - 1)
	i := int(c.lsu.eratPtr.Get()) % eratSize
	c.lsu.eratVPN.Set(i, vpn)
	c.lsu.eratPPN.Set(i, vpn)
	c.lsu.eratCtl.Set(i, 1)
	c.lsu.eratPar.Entry(i).Set(c.eratParity(vpn, vpn))
	c.lsu.eratPtr.Set(uint64(i+1) % eratSize)
}

// fail posts checker id's error if enabled; it returns true when the error
// was posted (so callers can squash the faulty side effect — detection gates
// data flow the way hardware checkers do).
// Defined in checkers.go; redeclared here in comment form for readers.
