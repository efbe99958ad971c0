package decision

import (
	"sort"

	"repro/internal/gvl"
)

// Pre-resolved GVL serving tables. Legal-basis resolution must answer
// "did vendor N register purpose P under consent / legitimate
// interest / flexibly on list version V?" without touching the JSON
// vendor lists (slices searched linearly, maps, allocations) at
// decision time. A VendorTable flattens one published v2 list into
// arrays indexed by vendor ID: presence bitset plus three uint16
// purpose masks per vendor. The Resolver holds one table per version
// and resolves a consent string's stamped version to the list it was
// written under.

// purposeMaskBits bounds the declared-purpose masks. GVL v2 declares
// purposes 1..10; 16 bits leave headroom without widening the table.
const purposeMaskBits = 16

// VendorTable is one GVL version pre-resolved for serving. Immutable
// after construction; safe for concurrent use.
type VendorTable struct {
	// Version is the vendor-list version the table was built from.
	Version int
	// MaxVendorID bounds the arrays.
	MaxVendorID int

	present  bitset
	consent  []uint16 // indexed by vendor ID; bit p-1 set ⇒ declared under consent
	legInt   []uint16 // declared under legitimate interest
	flexible []uint16 // declared flexible
}

// NewVendorTable flattens one v2 list into its serving form.
func NewVendorTable(l *gvl.ListV2) *VendorTable {
	max := l.MaxVendorID()
	t := &VendorTable{
		Version:     l.VendorListVersion,
		MaxVendorID: max,
		present:     newBitset(max),
		consent:     make([]uint16, max+1),
		legInt:      make([]uint16, max+1),
		flexible:    make([]uint16, max+1),
	}
	for i := range l.Vendors {
		v := &l.Vendors[i]
		if v.ID < 1 || v.ID > max {
			continue
		}
		t.present.set(v.ID)
		t.consent[v.ID] = purposeMask(v.Purposes)
		t.legInt[v.ID] = purposeMask(v.LegIntPurposes)
		t.flexible[v.ID] = purposeMask(v.FlexiblePurposes)
	}
	return t
}

func purposeMask(purposes []int) uint16 {
	var m uint16
	for _, p := range purposes {
		if p >= 1 && p <= purposeMaskBits {
			m |= 1 << uint(p-1)
		}
	}
	return m
}

// Vendors returns the number of registered vendors.
func (t *VendorTable) Vendors() int { return t.present.count() }

func (t *VendorTable) declaresConsent(vendor, purpose int) bool {
	return purpose >= 1 && purpose <= purposeMaskBits &&
		vendor < len(t.consent) && t.consent[vendor]>>uint(purpose-1)&1 == 1
}

func (t *VendorTable) declaresLegInt(vendor, purpose int) bool {
	return purpose >= 1 && purpose <= purposeMaskBits &&
		vendor < len(t.legInt) && t.legInt[vendor]>>uint(purpose-1)&1 == 1
}

func (t *VendorTable) declaresFlexible(vendor, purpose int) bool {
	return purpose >= 1 && purpose <= purposeMaskBits &&
		vendor < len(t.flexible) && t.flexible[vendor]>>uint(purpose-1)&1 == 1
}

// Resolver maps a consent string's VendorListVersion to the serving
// table (and, for the differential reference path, the source list) of
// the GVL it was written under. Immutable after construction.
type Resolver struct {
	versions []int // ascending
	tables   map[int]*VendorTable
	lists    map[int]*gvl.ListV2
}

// NewResolver pre-resolves every version of a v2 history.
func NewResolver(h *gvl.HistoryV2) *Resolver {
	r := &Resolver{
		tables: make(map[int]*VendorTable, len(h.Versions)),
		lists:  make(map[int]*gvl.ListV2, len(h.Versions)),
	}
	for i := range h.Versions {
		l := &h.Versions[i]
		r.versions = append(r.versions, l.VendorListVersion)
		r.tables[l.VendorListVersion] = NewVendorTable(l)
		r.lists[l.VendorListVersion] = l
	}
	sort.Ints(r.versions)
	return r
}

// resolve returns the newest known version ≤ the given version, or 0.
// A string stamped with an unpublished intermediate version resolves
// to the list it was actually written under; a version predating the
// history resolves to nothing (no declaration check possible).
func (r *Resolver) resolve(version int) int {
	i := sort.Search(len(r.versions), func(i int) bool { return r.versions[i] > version })
	if i == 0 {
		return 0
	}
	return r.versions[i-1]
}

// Table returns the serving table for a stamped vendor-list version,
// or nil when the version predates the history.
func (r *Resolver) Table(version int) *VendorTable {
	return r.tables[r.resolve(version)]
}

// List returns the source v2 list for a stamped version under the same
// resolution rule — the reference the naive decision path reads.
func (r *Resolver) List(version int) *gvl.ListV2 {
	return r.lists[r.resolve(version)]
}

// Versions returns the resolver's version span and count.
func (r *Resolver) Versions() (min, max, count int) {
	if len(r.versions) == 0 {
		return 0, 0, 0
	}
	return r.versions[0], r.versions[len(r.versions)-1], len(r.versions)
}
