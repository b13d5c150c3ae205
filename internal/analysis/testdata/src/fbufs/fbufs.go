// Package fbufs stubs the fbufs facade for the analyzer corpus: a System
// whose NewPath builds core paths, and the options constructors
// re-exported as function variables.
package fbufs

import "core"

type System struct{ Fbufs *core.Manager }

var CachedVolatile = core.CachedVolatile

func (s *System) NewPath(name string, opts core.Options, fbufPages int, domains ...*core.Domain) (*core.DataPath, error) {
	return &core.DataPath{}, nil
}
