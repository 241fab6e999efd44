package main

import "testing"

func TestParseDS(t *testing.T) {
	ds, err := parseDS("12345 13 2 49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE52FE34EF3C5CF9E04F3C5CF9")
	if err != nil {
		t.Fatal(err)
	}
	if ds.KeyTag != 12345 || uint8(ds.Algorithm) != 13 || uint8(ds.DigestType) != 2 {
		t.Fatalf("ds = %+v", ds)
	}
	if len(ds.Digest) != 32 {
		t.Fatalf("digest %d bytes", len(ds.Digest))
	}
	if ds, err := parseDS("65535 255 255 49FD"); err != nil || ds.KeyTag != 65535 || ds.Algorithm != 255 || ds.DigestType != 255 {
		t.Errorf("parseDS at the fields' upper bounds = %+v, %v", ds, err)
	}
	for _, bad := range []string{"", "1 2", "x y z w", "1 2 3 nothex!",
		"70000 13 2 49FD46E6", "-1 13 2 49FD46E6", "1 300 2 49FD46E6", "1 13 256 49FD46E6", "1 -13 2 49FD46E6"} {
		if _, err := parseDS(bad); err == nil {
			t.Errorf("parseDS(%q) accepted", bad)
		}
	}
}
