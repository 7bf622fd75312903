package testenv

import (
	"math"
	"reflect"
)

// BitEqual reports whether a and b, two values of one flat struct
// type, agree field by field, float fields by math.Float64bits — where
// reflect.DeepEqual would hold -0 equal to 0.
func BitEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}
