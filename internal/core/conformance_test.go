package core

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/protoparse"
	"protoacc/internal/pb/schema"
)

// The conformance schema exercises every wire type, the zig-zag kinds,
// an enum with a negative value, packed and unpacked repeated fields,
// nesting, recursion, and wide field numbers (multi-byte tags).
const conformanceProto = `
syntax = "proto2";
package conformance;

enum Sign {
  MINUS = -1;
  ZERO  = 0;
  PLUS  = 1;
}

message Inner {
  optional int32  a = 1;
  optional Inner  self = 2;
  optional string s = 3;
}

message All {
  optional int32    i32  = 1;
  optional int64    i64  = 2;
  optional uint32   u32  = 3;
  optional uint64   u64  = 4;
  optional sint32   s32  = 5;
  optional sint64   s64  = 6;
  optional fixed32  f32  = 7;
  optional fixed64  f64  = 8;
  optional sfixed32 sf32 = 9;
  optional sfixed64 sf64 = 10;
  optional float    flt  = 11;
  optional double   dbl  = 12;
  optional bool     b    = 13;
  optional string   str  = 14;
  optional bytes    byt  = 15;
  optional Inner    msg  = 16;
  repeated int32    ri   = 17;
  repeated int64    rp   = 18 [packed=true];
  repeated string   rs   = 19;
  repeated Inner    rm   = 20;
  optional Sign     en   = 21;
  repeated Sign     ren  = 22 [packed=true];
  optional int32    wide = 2000; // wide field number: 2-byte tag
}
`

// conformanceVectors are hex wire inputs that the reference codec, the
// CPU model and the accelerator must decode to the same message, once the
// reference's unknown bytes are stripped, and that must re-encode
// byte-identically. A vector holding a group must be rejected by both
// models with the group error.
var conformanceVectors = []struct {
	name string
	hex  string
}{
	{"empty", ""},
	{"int32 canonical", "0801"},
	{"int32 max", "08ffffffff07"},
	{"int32 negative ten-byte", "08ffffffffffffffffff01"},
	{"int64 min", "1080808080808080808001"},
	{"sint32 minus one", "2801"},
	{"sint64 min", "30ffffffffffffffffff01"},
	{"uint64 max", "20ffffffffffffffffff01"},
	{"fixed32", "3d78563412"},
	{"fixed64", "41efcdab9078563412"},
	{"sfixed32 negative", "4dffffffff"},
	{"float one", "5d0000803f"},
	{"double one", "61000000000000f03f"},
	{"bool noncanonical true", "6805"},
	{"empty string", "7200"},
	{"string", "720568656c6c6f"},
	{"empty sub-message", "8201" + "00"},
	{"nested twice", "8201" + "06" + "1204" + "120208" + "07"},
	{"unpacked repeated", "880101880102880103"},
	{"packed run", "9201" + "03" + "010203"},
	{"two packed runs concatenate", "9201" + "02" + "0102" + "9201" + "01" + "03"},
	{"packed then unpacked mix", "9201" + "01" + "2a" + "9001" + "2b"},
	{"repeated strings with empty", "9a0100" + "9a010161"},
	{"wide field number", "807d" + "2a"},
	{"interleaved repeated reopen", "880101" + "0802" + "880103"},
	{"overwrite scalar last wins", "08010802"},
	{"non-canonical varint field value", "088001"}, // 128 as 2 bytes is canonical; 0x80 0x01
	{"enum minus one ten-byte", "a801ffffffffffffffffff01"},
	{"packed enum run with minus one", "b2010b01ffffffffffffffffff01"},
	{"uint32 wider than 32 bits truncated", "18ffffffffff0f"},
	{"unknown varint", "0801" + "980607" + "1002"},
	{"unknown fixed64", "0801" + "99060102030405060708" + "1002"},
	{"unknown length-delimited", "0801" + "9a0603616263" + "1002"},
	{"unknown fixed32", "0801" + "9d0601020304" + "1002"},
	{"wire-type mismatch", "0a0141"},
	{"unknown fields inside a sub-message", "8201" + "1c" + "0801" + "980607" + "9d0601020304" + "99060102030405060708" + "9a060161" + "1a0162" + "1801"},
	{"empty group", "0801" + "a306a406" + "1002"},
}

func conformanceSystems(t *testing.T) (*schema.Message, *System, *System) {
	t.Helper()
	f, err := protoparse.Parse("conformance.proto", conformanceProto)
	if err != nil {
		t.Fatal(err)
	}
	typ := f.MessageByName("All")
	boom := New(smallConfig(KindBOOM))
	accel := New(smallConfig(KindAccel))
	for _, sys := range []*System{boom, accel} {
		if err := sys.LoadSchema(typ); err != nil {
			t.Fatal(err)
		}
	}
	return typ, boom, accel
}

func TestConformanceDecode(t *testing.T) {
	typ, boom, accel := conformanceSystems(t)
	for _, v := range conformanceVectors {
		input, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatalf("%s: bad vector hex: %v", v.name, err)
		}
		ref, refErr := codec.Unmarshal(typ, input)
		if refErr != nil {
			t.Fatalf("%s: reference rejected vector: %v", v.name, refErr)
		}
		group := stripUnknown(ref)
		for _, sys := range []*System{boom, accel} {
			sys.ResetWork()
			bufAddr, err := sys.WriteWire(input)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Deserialize(typ, bufAddr, uint64(len(input)))
			if group {
				if err == nil || !strings.Contains(err.Error(), "group") {
					t.Errorf("%s: %s did not reject the group with the group error: %v", v.name, sys.Name(), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", v.name, sys.Name(), err)
			}
			got, err := sys.ReadMessage(typ, res.ObjAddr)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Equal(got) {
				t.Errorf("%s: %s decoded differently from the reference", v.name, sys.Name())
			}
		}
	}
}

func TestConformanceReencode(t *testing.T) {
	// Decode each vector, then serialize the result on every system; all
	// outputs must agree with the reference serializer (canonical form)
	// of the stripped reference, since the materializer writes no unknown
	// bytes.
	typ, boom, accel := conformanceSystems(t)
	for _, v := range conformanceVectors {
		input, _ := hex.DecodeString(v.hex)
		ref, err := codec.Unmarshal(typ, input)
		if err != nil {
			t.Fatal(err)
		}
		stripUnknown(ref)
		want, err := codec.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []*System{boom, accel} {
			sys.ResetWork()
			objAddr, err := sys.MaterializeInput(ref)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Serialize(typ, objAddr)
			if err != nil {
				t.Fatalf("%s on %s: %v", v.name, sys.Name(), err)
			}
			got, err := sys.ReadWire(res.WireAddr, res.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s re-encoded differently\n got %x\nwant %x", v.name, sys.Name(), got, want)
			}
		}
	}
}

func TestConformanceRejects(t *testing.T) {
	// Inputs every decode path must reject.
	typ, boom, accel := conformanceSystems(t)
	bad := []struct {
		name string
		hex  string
	}{
		{"truncated tag", "80"},
		{"truncated value", "08"},
		{"length past end", "72ff01"},
		{"field number zero", "0001"},
		{"submessage overruns", "8201ff"},
		{"eleven-byte varint", "08ffffffffffffffffffff01"},
	}
	for _, v := range bad {
		input, _ := hex.DecodeString(v.hex)
		if _, err := codec.Unmarshal(typ, input); err == nil {
			t.Errorf("%s: reference accepted bad input", v.name)
		}
		for _, sys := range []*System{boom, accel} {
			sys.ResetWork()
			bufAddr, err := sys.WriteWire(input)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Deserialize(typ, bufAddr, uint64(len(input))); err == nil {
				t.Errorf("%s: %s accepted bad input", v.name, sys.Name())
			}
		}
	}
}

func TestConformanceDeepRecursion(t *testing.T) {
	// A 30-deep Inner.self chain round trips on every system.
	f, err := protoparse.Parse("conformance.proto", conformanceProto)
	if err != nil {
		t.Fatal(err)
	}
	inner := f.MessageByName("Inner")
	m := dynamic.New(inner)
	cur := m
	for i := 0; i < 30; i++ {
		cur.SetInt32(1, int32(i))
		cur = cur.MutableMessage(2)
	}
	cur.SetString(3, "leaf")
	wire, err := codec.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{KindBOOM, KindXeon, KindAccel} {
		sys := New(smallConfig(kind))
		if err := sys.LoadSchema(inner); err != nil {
			t.Fatal(err)
		}
		bufAddr, _ := sys.WriteWire(wire)
		res, err := sys.Deserialize(inner, bufAddr, uint64(len(wire)))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got, err := sys.ReadMessage(inner, res.ObjAddr)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(got) {
			t.Errorf("%v: deep chain mismatch", kind)
		}
	}
}
