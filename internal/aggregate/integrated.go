package aggregate

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs/span"
	"fbufs/internal/vm"
)

// Integrated-mode DAG node encoding. Nodes are 32-byte records written into
// fbuf memory; because the fbuf region is mapped at the same virtual
// address in every domain, node "pointers" are plain virtual addresses
// valid everywhere, with no translation at transfer time (section 3.2.3).
//
//	offset 0: kind  (0 = empty leaf, 1 = leaf, 2 = pair)
//	offset 4: u32   length (leaf: data bytes; pair: advisory total)
//	offset 8: u64   A (leaf: data VA; pair: left child VA)
//	offset 16: u64  B (pair: right child VA)
//
// Nodes are 32-byte aligned and never cross a page boundary. A page of
// zeros decodes as an empty leaf — this is what makes the section 3.2.4
// empty-leaf-page trick work: an unpermitted read is satisfied with zeroed
// memory and the reference "appears as the absence of data".
const (
	nodeSize  = 32
	kindEmpty = 0
	kindLeaf  = 1
	kindPair  = 2

	// maxNodes bounds a traversal; combined with on-path cycle detection
	// it guarantees termination against adversarial DAGs.
	maxNodes = 16384
)

// Traversal errors (receiver-side validation, section 3.2.4).
var (
	ErrBadPointer = errors.New("aggregate: DAG pointer outside fbuf region")
	ErrCycle      = errors.New("aggregate: cycle in DAG")
	ErrTooLarge   = errors.New("aggregate: DAG exceeds node limit")
	ErrBadNode    = errors.New("aggregate: malformed DAG node")
)

func encodeLeaf(buf []byte, dataVA vm.VA, n int) {
	buf[0] = kindLeaf
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	binary.LittleEndian.PutUint64(buf[8:], uint64(dataVA))
	binary.LittleEndian.PutUint64(buf[16:], 0)
}

func encodePair(buf []byte, left, right vm.VA, total int) {
	buf[0] = kindPair
	binary.LittleEndian.PutUint32(buf[4:], uint32(total))
	binary.LittleEndian.PutUint64(buf[8:], uint64(left))
	binary.LittleEndian.PutUint64(buf[16:], uint64(right))
}

// EmptyLeafImage writes the canonical empty-leaf encoding; installed as
// core.Manager.EmptyLeafInit so synthesized pages decode cleanly. (All
// zeros already decodes as empty; this just makes the kind explicit.)
func EmptyLeafImage(page []byte) {
	page[0] = kindEmpty
}

// allocNode reserves a 32-byte node slot in the context's arena, rotating
// to a fresh node fbuf when the current one fills. The arena keeps its own
// reference on the current fbuf; operations take additional references for
// the messages they build. The pending run is stored before the arena
// rotates away from the fbuf it belongs to.
func (c *Ctx) allocNode() (vm.VA, *core.Fbuf, error) {
	// Rotate when full — or when the current node fbuf became immutable
	// because a message using it was transferred under non-volatile (or
	// explicitly secured) rules; buffers are never modified once secured.
	if c.cur == nil || c.curOff+nodeSize > c.cur.Size() || c.cur.Secured() {
		if err := c.flush(); err != nil {
			return 0, nil, err
		}
		var nf *core.Fbuf
		var err error
		if c.nodes != nil {
			nf, err = c.nodes.Alloc()
		} else {
			opts := c.uncachedOpts
			nf, err = c.Mgr.AllocUncached(c.Dom, 1, opts)
		}
		if err != nil {
			return 0, nil, err
		}
		if c.cur != nil {
			c.retired = append(c.retired, c.cur)
		}
		c.cur = nf
		c.curOff = 0
	}
	va := c.cur.Base + vm.VA(c.curOff)
	c.curOff += nodeSize
	return va, c.cur, nil
}

// putNode reserves a node slot and returns its address and its 32 zeroed
// bytes at the end of the pending run, for the caller to encode; a zeroed
// node is the empty leaf. It notes the node's fbuf in the Ctx's node
// list. The arena fills one fbuf before rotating to a fresh one and never
// returns to it, so an fbuf not yet noted differs from the last one noted.
func (c *Ctx) putNode() (vm.VA, []byte, error) {
	va, f, err := c.allocNode()
	if err != nil {
		return 0, nil, err
	}
	if len(c.run) == 0 {
		c.runOff = int(va - f.Base)
	}
	c.run = append(c.run, make([]byte, nodeSize)...)
	if n := len(c.nodeBuf); n == 0 || c.nodeBuf[n-1] != f {
		c.nodeBuf = append(c.nodeBuf, f)
	}
	return va, c.run[len(c.run)-nodeSize:], nil
}

// flush stores the pending run, the nodes encoded since the last store,
// with one write to the current node fbuf. Node fbufs are one page and
// the run's slots are consecutive, so the write translates the page once
// where storing node by node translated it per node: the first
// translation takes the TLB miss, fault and charge that the run's first
// node took, and the others were hits, which charge nothing. For the same
// reason a failed write failed at the run's first node, and the arena
// keeps only that node's slot, as it did when it stored node by node.
func (c *Ctx) flush() error {
	if len(c.run) == 0 {
		return nil
	}
	err := c.cur.Write(c.Dom, c.runOff, c.run)
	if err != nil {
		c.curOff = c.runOff + nodeSize
	}
	c.run = c.run[:0]
	return err
}

// buildRoot writes a right-leaning leaf/pair chain describing segs and
// returns the root VA plus the node fbufs used, ordered by region VA. The
// list is the Ctx's scratch, valid until the next node write.
func (c *Ctx) buildRoot(segs []Seg) (vm.VA, []*core.Fbuf, error) {
	c.nodeBuf = c.nodeBuf[:0]
	root, err := c.chain(segs)
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		return 0, nil, err
	}
	slices.SortFunc(c.nodeBuf, func(x, y *core.Fbuf) int { return cmp.Compare(x.Base, y.Base) })
	return root, c.nodeBuf, nil
}

// chain encodes buildRoot's nodes: an empty leaf for no segments, else the
// leaves, then the pairs right to left.
func (c *Ctx) chain(segs []Seg) (vm.VA, error) {
	if len(segs) == 0 {
		root, _, err := c.putNode()
		return root, err
	}
	leaves := c.leafBuf[:0]
	for _, s := range segs {
		va, enc, err := c.putNode()
		if err != nil {
			return 0, err
		}
		encodeLeaf(enc, s.VA, s.N)
		leaves = append(leaves, va)
	}
	c.leafBuf = leaves
	root := leaves[len(leaves)-1]
	rest := segs[len(segs)-1].N
	for i := len(leaves) - 2; i >= 0; i-- {
		rest += segs[i].N
		va, enc, err := c.putNode()
		if err != nil {
			return 0, err
		}
		encodePair(enc, leaves[i], root, rest)
		root = va
	}
	return root, nil
}

// joinRoot writes the single pair node a Join needs, reusing both operand
// DAGs as subtrees, and returns its address and fbuf.
func (c *Ctx) joinRoot(left, right vm.VA, total int) (vm.VA, *core.Fbuf, error) {
	c.nodeBuf = c.nodeBuf[:0]
	root, enc, err := c.putNode()
	if err == nil {
		encodePair(enc, left, right, total)
		err = c.flush()
	}
	if err != nil {
		return 0, nil, err
	}
	return root, c.nodeBuf[0], nil
}

// Open reconstructs a message view from a DAG root, as a receiving domain
// must after an integrated transfer. The traversal implements all three
// section 3.2.4 safeguards:
//
//  1. every DAG pointer is range-checked against the fbuf region;
//  2. cycles are detected (and total node count bounded), so traversal
//     always terminates even against an adversarial or corrupted DAG;
//  3. reads of addresses the receiver has no permission for complete
//     against the VM's empty-leaf page, so dangling references appear as
//     the absence of data rather than a crash.
func Open(mgr *core.Manager, d *domain.Domain, rootVA vm.VA) (*Msg, error) {
	if o := mgr.Sys.Obs; o != nil {
		o.SpanBegin(span.StageMap, "aggregate", int(d.ID)+mgr.Sys.TraceBase, int64(rootVA))
		defer o.SpanEnd()
	}
	// Depth-first, left to right, over stack scratch. The frames are the
	// pairs on the path from the root, each waiting for or walking its
	// right subtree: the on-path set of the cycle check. DAG depth is
	// bounded by maxNodes, and lists longer than the scratch spill to
	// the heap.
	type frame struct {
		va, right    vm.VA
		walkingRight bool
	}
	var (
		frameBuf [32]frame
		segBuf   [16]Seg
		fbufBuf  [16]*core.Fbuf
	)
	path, segs, fbufs := frameBuf[:0], segBuf[:0], fbufBuf[:0]
	// note adds f to the fbufs discovered, once, in discovery order.
	note := func(f *core.Fbuf) {
		if f != nil && !slices.Contains(fbufs, f) {
			fbufs = append(fbufs, f)
		}
	}
	count := 0
	for va := rootVA; ; {
		if !mgr.InRegion(va) {
			return nil, fmt.Errorf("%w: node %#x", ErrBadPointer, uint64(va))
		}
		if va%nodeSize != 0 {
			return nil, fmt.Errorf("%w: unaligned node %#x", ErrBadNode, uint64(va))
		}
		for _, fr := range path {
			if fr.va == va {
				return nil, fmt.Errorf("%w via node %#x", ErrCycle, uint64(va))
			}
		}
		count++
		if count > maxNodes {
			return nil, ErrTooLarge
		}
		var enc [nodeSize]byte
		if err := d.AS.Read(va, enc[:]); err != nil {
			// A non-volatile configuration faults here instead of
			// synthesizing an empty leaf; surface the violation.
			return nil, fmt.Errorf("aggregate: node read: %w", err)
		}
		note(mgr.FbufAt(va))
		kind := enc[0]
		n := int(binary.LittleEndian.Uint32(enc[4:]))
		a := vm.VA(binary.LittleEndian.Uint64(enc[8:]))
		b := vm.VA(binary.LittleEndian.Uint64(enc[16:]))
		switch kind {
		case kindEmpty:
		case kindLeaf:
			if n == 0 {
				break
			}
			if n < 0 || n > machine.PageSize*core.DefaultChunkPages {
				return nil, fmt.Errorf("%w: leaf length %d", ErrBadNode, n)
			}
			if !mgr.InRegion(a) || !mgr.InRegion(a+vm.VA(n-1)) {
				return nil, fmt.Errorf("%w: leaf data [%#x,+%d)", ErrBadPointer, uint64(a), n)
			}
			f := mgr.FbufAt(a)
			if f != nil && !f.Contains(a+vm.VA(n-1)) {
				return nil, fmt.Errorf("%w: leaf data crosses fbuf boundary", ErrBadNode)
			}
			note(f)
			segs = append(segs, Seg{F: f, VA: a, N: n})
		case kindPair:
			path = append(path, frame{va: va, right: b})
			va = a
			continue
		default:
			return nil, fmt.Errorf("%w: kind %d at %#x", ErrBadNode, kind, uint64(va))
		}
		// The subtree at va is done: leave the pairs whose right
		// subtrees are done too, then walk the next right subtree.
		for len(path) > 0 && path[len(path)-1].walkingRight {
			path = path[:len(path)-1]
		}
		if len(path) == 0 {
			break
		}
		top := &path[len(path)-1]
		top.walkingRight = true
		va = top.right
	}
	// The message's reference set is the fbufs the traversal discovered
	// that this domain actually holds (granted by the sender's transfer).
	held := fbufs[:0]
	for _, f := range fbufs {
		if f.HeldBy(d) {
			held = append(held, f)
		}
	}
	v := new(openView)
	v.Msg = Msg{mgr: mgr, integrated: true, rootVA: rootVA, segs: append(v.segBuf[:0], segs...),
		fbufs: append(v.fbufBuf[:0], held...), ndata: -1, length: totalLen(segs)}
	return &v.Msg, nil
}

// openView is an Opened view and the inline arrays its lists start in, one
// object. The arrays hold a header pushed onto a one-fbuf message (two data
// fbufs and their node fbufs); longer lists spill to the heap.
type openView struct {
	Msg
	segBuf  [2]Seg
	fbufBuf [4]*core.Fbuf
}
