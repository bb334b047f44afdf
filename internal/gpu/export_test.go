package gpu

import (
	"fmt"
	"slices"
	"strings"
)

// Table renders the device's allocation table and free list, one line
// per block in address order, for tests outside the package.
func (d *Device) Table() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	addrs := make([]uint64, 0, len(d.alloc.used))
	for addr := range d.alloc.used {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	var b strings.Builder
	for _, addr := range addrs {
		blk := d.alloc.used[addr]
		fmt.Fprintf(&b, "%#x len %d asked %d owner %p bytes %x\n", addr, blk.len, blk.asked, blk.owner, blk.buf)
	}
	fmt.Fprintf(&b, "free %v, in use %d\n", d.alloc.free, d.alloc.inUse)
	return b.String()
}
