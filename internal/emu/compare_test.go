package emu

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestComparisonJSONRoundTrip(t *testing.T) {
	c := mustCompare(t, baseConfig(), nil)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Comparison
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.AnxietyReduction() != c.AnxietyReduction() {
		t.Fatal("anxiety reduction changed")
	}
	b1, t1, _ := c.TPVGain()
	b2, t2, _ := back.TPVGain()
	if b1 != b2 || t1 != t2 {
		t.Fatal("TPV changed")
	}
}
