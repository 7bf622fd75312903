// Package bufpool is the one pool of byte buffers behind the hot
// request path (DESIGN.md §18): the daemon's append-encoded response
// bodies, the JSON report body wire.ReadReport drains, and the response
// body a client.Caller reads before decoding or relaying it. A buffer
// is held for one request and returned before the call that took it
// returns, so nothing outside may keep a slice of its bytes.
package bufpool

import (
	"bytes"
	"sync"
)

// maxPooled is the largest buffer Put keeps. A batch body can reach
// the daemon's 16 MiB cap; pooling that would pin it for the sake of
// requests a hundredth its size.
const maxPooled = 64 << 10

var pool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 1024)) }}

// Get returns an empty buffer.
func Get() *bytes.Buffer { return pool.Get().(*bytes.Buffer) }

// Put recycles b; one that grew past 64 KiB is left to the collector.
func Put(b *bytes.Buffer) {
	if b.Cap() > maxPooled {
		return
	}
	b.Reset()
	pool.Put(b)
}
