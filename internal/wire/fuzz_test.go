package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"lpvs/internal/testenv"
)

// FuzzDecodeBatch is the fail-closed gate on the binary decoder: any
// input either decodes to records that re-encode byte-identically
// (canonical framing) or fails with one of the package sentinels.
// Panics, silent truncation, and non-canonical accepts are all bugs.
func FuzzDecodeBatch(f *testing.F) {
	batch, err := AppendBatch(nil, sampleReports())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := AppendBatch(nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kindOneFrame(f, sampleReports()[0]))
	f.Add(batch)
	f.Add(empty)
	f.Add(batch[:len(batch)-3])                   // truncated tail
	f.Add(append([]byte(nil), "LPWR"...))         // header only
	f.Add([]byte("LPWR\x02\x02\xff\xff\xff\xff")) // absurd count
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := DecodeBatch(data)
		if err != nil {
			if !isWireError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again, err := AppendBatch(nil, reqs)
		if err != nil {
			t.Fatalf("accepted input did not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/re-encode not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}

// FuzzReadReportJSON is the differential of ReadReport's JSON report
// against the json.Unmarshal it reads with alone: the same report,
// float bits included, or the same error behind the "decode: " prefix —
// a JSON array among them. A body the layout reader declines must leave
// its receiver as it was.
func FuzzReadReportJSON(f *testing.F) {
	for _, r := range sampleReports() {
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{"device_id":"d","channel_id":"","display_type":"LCD","width":0,"height":-1,"diagonal_inch":-0,` +
			`"brightness":1e-7,"energy_frac":1e+21,"battery_capacity_j":5e-324,"base_power_w":1.7976931348623157e+308}` + "\n",
		`{"device_id":"d","display_type":"AMOLED","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id":"d","display_type":"LCD","width":+1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":Inf,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":0x1p4,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}x`,
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}{}`,
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1} ` + "\t\r\n",
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1,"channel_id":"c"}`,
		`{"device_id":"\u003cd\u003e","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id":"d","display_type":"lcd","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1}`,
		`{"device_id":"d","channel_id":null,"display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"Device_ID":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}`,
		`{"device_id": "d"}`, `{}`, ` {}`, `null`, ``, `{"device_id":"d`,
		`[{"device_id":"d","display_type":"LCD","width":1,"height":1,"diagonal_inch":1,"brightness":1,"energy_frac":1,"battery_capacity_j":1,"base_power_w":1}]`,
		` []`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want ReportRequest
		wantErr := json.Unmarshal(data, &want)
		msg, err := ReadReport("application/json", bytes.NewReader(data), 1, nil, nil)
		switch {
		case wantErr != nil && (err == nil || err.Error() != "decode: "+wantErr.Error() ||
			!reflect.DeepEqual(errors.Unwrap(err), wantErr)):
			t.Fatalf("ReadReport(%q) failed with %v, json.Unmarshal with %v", data, err, wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("ReadReport(%q) failed with %v, json.Unmarshal read it", data, err)
		case wantErr == nil && !testenv.BitEqual(msg.Reports[0], want):
			t.Fatalf("ReadReport(%q) read %+v, json.Unmarshal %+v", data, msg.Reports[0], want)
		}
		was := ReportRequest{DeviceID: "before", ChannelID: "c", DisplayType: "OLED", Width: 9, BasePowerW: -1}
		got := was
		if !got.readJSON(data) && !testenv.BitEqual(got, was) {
			t.Fatalf("readJSON declined %q but left %+v", data, got)
		}
	})
}

// TestReadReportJSONRoundTrip shows the layout reader firing on what
// json.Marshal writes for a report, channel present or omitted, edge
// floats included.
func TestReadReportJSONRoundTrip(t *testing.T) {
	reqs := sampleReports()
	for _, x := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, -12.5} {
		reqs = append(reqs, ReportRequest{
			DeviceID: "dev x", DisplayType: "AMOLED", Width: -1, Height: 0,
			DiagonalInch: x, Brightness: -x, EnergyFrac: x / 3, BatteryCapacityJ: x * 0.5, BasePowerW: x / 1e3,
		})
	}
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got ReportRequest
		if !got.readJSON(body) || !testenv.BitEqual(got, r) {
			t.Fatalf("readJSON(%s) = %+v, want %+v", body, got, r)
		}
	}
}

// TestReadReportJSONAllocs guards the layout reader's cost: a report of
// a known display type reads with one allocation, its device ID.
func TestReadReportJSONAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	body, err := json.Marshal(sampleReports()[0])
	if err != nil {
		t.Fatal(err)
	}
	var got ReportRequest
	if allocs := testing.AllocsPerRun(100, func() { got.readJSON(body) }); allocs > 1 {
		t.Fatalf("readJSON of an OLED report allocates %.0f, want 1 (its device ID)", allocs)
	}
}
