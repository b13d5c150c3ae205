// Volatile-read cases: a receiver must Secure a volatile fbuf, or branch
// on Secured(), before it reads; the originator reads freely.

package a

import (
	"core"
	"fbufs"
)

// peek reads the fbuf on behalf of domain d.
func peek(f *core.Fbuf, d *core.Domain, buf []byte) {
	_ = f.Read(d, 0, buf)
}

func helperReadUnsecured(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	peek(f, cons, buf) // want "read of volatile fbuf by receiver without Secure"
}

func helperReadByOriginator(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	peek(f, prod, buf) // the originator trusts its own writes
}

func facadeReadUnsecured(sys *fbufs.System, prod, cons *core.Domain, buf []byte) {
	path, _ := sys.NewPath("p", fbufs.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = sys.Fbufs.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // want "read of volatile fbuf by receiver without Secure"
}

func uncachedTouchUnsecured(mgr *core.Manager, prod, cons *core.Domain) {
	f, _ := mgr.AllocUncached(prod, 1, core.Uncached())
	_ = mgr.Transfer(f, prod, cons)
	_ = f.TouchRead(cons) // want "read of volatile fbuf by receiver without Secure"
}

func optionsLiteralNonVolatile(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.Options{Cached: false}, 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // Volatile omitted: the transfer revoked the writer
}

func secureOnOneArm(mgr *core.Manager, prod, cons *core.Domain, buf []byte, trust bool) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	if !trust {
		_ = mgr.Secure(f, cons)
	}
	_ = f.Read(cons, 0, buf) // want "read of volatile fbuf by receiver without Secure"
}

func secureUnlessSecured(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	if !f.Secured() {
		_ = mgr.Secure(f, cons)
	}
	_ = f.Read(cons, 0, buf) // branching on Secured() is the acknowledgment idiom
}

func writeAfterSecuredCheck(mgr *core.Manager, prod, cons *core.Domain) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Secured()
	_ = f.Write(prod, 0, nil) // want "write to fbuf after Transfer"
}

func retransferAfterSecure(mgr *core.Manager, prod, cons, sink *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons, sink)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = mgr.Secure(f, cons)
	_ = mgr.Transfer(f, cons, sink)
	_ = f.Read(sink, 0, buf) // secured once: a later hop stays secured
}

func pathFromCaller(mgr *core.Manager, p *core.DataPath, prod, cons *core.Domain, buf []byte) {
	f, _ := p.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // p's volatility is not known in this body: unchecked
}

func spreadDomains(mgr *core.Manager, doms []*core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, doms...)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, doms[0], doms[1])
	_ = f.Read(doms[0], 0, buf) // a spread domain list names no originator: unchecked
}
