package coding

import "testing"

// crc16Bitwise is the bit-serial CRC-16 (poly 0x1021, init 0xFFFF, xorout
// 0xFFFF): one shift and conditional XOR per message bit. It is the
// reference the table-driven CRC16 is pinned against.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc ^ 0xFFFF
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/X.25-style parameters (poly 0x1021, init 0xFFFF, xorout
	// 0xFFFF, no reflection): "123456789" → 0xD64E per standard tables
	// for CRC-16/GENIBUS.
	for name, crc := range map[string]func([]byte) uint16{"table": CRC16, "bitwise": crc16Bitwise} {
		if got := crc([]byte("123456789")); got != 0xD64E {
			t.Errorf("%s CRC16 = %#04x, want 0xD64E", name, got)
		}
	}
}

// TestCRC16MatchesBitwise pins the table form to the bitwise reference over
// the empty input and every 1-byte and 2-byte input.
func TestCRC16MatchesBitwise(t *testing.T) {
	if got, want := CRC16(nil), crc16Bitwise(nil); got != want {
		t.Errorf("CRC16(nil) = %#04x, want %#04x", got, want)
	}
	for a := 0; a < 256; a++ {
		one := []byte{byte(a)}
		if got, want := CRC16(one), crc16Bitwise(one); got != want {
			t.Fatalf("CRC16(%#02x) = %#04x, want %#04x", a, got, want)
		}
		for b := 0; b < 256; b++ {
			two := []byte{byte(a), byte(b)}
			if got, want := CRC16(two), crc16Bitwise(two); got != want {
				t.Fatalf("CRC16(%#02x %#02x) = %#04x, want %#04x", a, b, got, want)
			}
		}
	}
}

// FuzzCRC16 pins the table form to the bitwise reference on arbitrary
// messages.
func FuzzCRC16(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xFF, 0x80, 0x01, 0x10, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Errorf("CRC16(% x) = %#04x, bitwise %#04x", data, got, want)
		}
	})
}
