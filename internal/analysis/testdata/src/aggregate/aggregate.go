// Package aggregate stubs fbufs/internal/aggregate for the errflow corpus.
package aggregate

type Msg struct{}

type Ctx struct{}

func (c *Ctx) Join(a, b *Msg) (*Msg, error)          { return a, nil }
func (c *Ctx) Push(m *Msg, hdr []byte) (*Msg, error) { return m, nil }
