// Package fix is the fixture TestUncalledExportsFixture checks: what a
// check by name alone would take for called, and what only a check by
// type sees is called.
package fix

// A's Run is called, by Use.
type A struct{}

func (A) Run() {}

// B's Run shares its name with A's, but nothing calls it.
type B struct{}

func (B) Run() {}

// Run shares its name with A's method, but nothing calls it.
func Run() {}

// C's Ping is called only through an interface value.
type C struct{}

func (C) Ping() {}

// Use calls A's Run.
func Use() { A{}.Run() }
