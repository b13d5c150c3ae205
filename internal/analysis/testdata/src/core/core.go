// Package core is a shape-faithful stub of fbufs/internal/core for the
// analyzer corpus: the analyzers match API by package *name* plus
// receiver type and method signature, so this stub exercises them
// exactly as the real package does without importing the simulator.
package core

// Domain stands in for *domain.Domain.
type Domain struct{ Name string }

// Options mirrors core.Options.
type Options struct {
	Volatile bool
	Cached   bool
}

func CachedVolatile() Options      { return Options{Volatile: true, Cached: true} }
func CachedNonVolatile() Options   { return Options{Cached: true} }
func Uncached() Options            { return Options{Volatile: true} }
func UncachedNonVolatile() Options { return Options{} }

type Manager struct{}

type DataPath struct{}

type Fbuf struct{}

func (m *Manager) NewPath(name string, opts Options, fbufPages int, domains ...*Domain) (*DataPath, error) {
	return &DataPath{}, nil
}

func (m *Manager) AllocUncached(orig *Domain, pages int, opts Options) (*Fbuf, error) {
	return &Fbuf{}, nil
}

func (m *Manager) AllocUncachedFill(orig *Domain, pages int, opts Options, fill int) (*Fbuf, error) {
	return &Fbuf{}, nil
}

func (m *Manager) Transfer(f *Fbuf, from, to *Domain) error { return nil }
func (m *Manager) Secure(f *Fbuf, requester *Domain) error  { return nil }
func (m *Manager) Free(f *Fbuf, d *Domain) error            { return nil }
func (m *Manager) FreeBatch(fs []*Fbuf, d *Domain) error    { return nil }
func (m *Manager) DupRef(f *Fbuf, d *Domain) error          { return nil }

func (p *DataPath) Alloc() (*Fbuf, error) { return &Fbuf{}, nil }

func (p *DataPath) AllocBatch(out []*Fbuf) (int, error) {
	for i := range out {
		out[i] = &Fbuf{}
	}
	return len(out), nil
}

// Depot and Magazine mirror core.Depot and core.Magazine (per-CPU
// alloc/free caching over a path's depot).
type Depot struct{}
type Magazine struct{}

func (p *DataPath) EnableDepot(unit, shards int) *Depot { return &Depot{} }
func (d *Depot) NewMagazine() *Magazine                 { return &Magazine{} }
func (g *Magazine) Alloc() (*Fbuf, error)               { return &Fbuf{}, nil }
func (g *Magazine) Free(f *Fbuf, d *Domain) error       { return nil }
func (g *Magazine) Drain()                              {}

func (f *Fbuf) Write(d *Domain, off int, p []byte) error { return nil }
func (f *Fbuf) Read(d *Domain, off int, p []byte) error  { return nil }
func (f *Fbuf) TouchWrite(d *Domain) error               { return nil }
func (f *Fbuf) TouchRead(d *Domain) error                { return nil }
func (f *Fbuf) DMAWrite(off int, p []byte) error         { return nil }
func (f *Fbuf) DMARead(off int, p []byte) error          { return nil }
func (f *Fbuf) Secured() bool                            { return false }
