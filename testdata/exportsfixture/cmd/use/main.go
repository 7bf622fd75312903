// Command use calls the fixture's exports.
package main

import "fixture/internal/fix"

type pinger interface{ Ping() }

func main() {
	fix.Use()
	var p pinger = fix.C{}
	p.Ping()
}
