package main

import "testing"

func TestParseGenre(t *testing.T) {
	for _, name := range []string{"Gaming", "Esports", "IRL", "Music", "Sports"} {
		g, err := parseGenre(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.String() != name {
			t.Fatalf("round trip %s -> %s", name, g)
		}
	}
	if _, err := parseGenre("Cooking"); err == nil {
		t.Fatal("unknown genre accepted")
	}
}

func TestNormalizeAddr(t *testing.T) {
	if got := normalizeAddr(":8080"); got != ":8080" {
		t.Fatalf("got %q", got)
	}
	if got := normalizeAddr("127.0.0.1:9"); got != "127.0.0.1:9" {
		t.Fatalf("got %q", got)
	}
}

func TestTickURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{":8080", "http://localhost:8080/v1/tick"},
		{"127.0.0.1:9", "http://127.0.0.1:9/v1/tick"},
		{"0.0.0.0:9", "http://localhost:9/v1/tick"},
		{"[::]:9", "http://localhost:9/v1/tick"},
		{"[::1]:9", "http://[::1]:9/v1/tick"},
		{"example:9", "http://example:9/v1/tick"},
	} {
		got, err := tickURL(tc.addr, "/v1/tick")
		if err != nil || got != tc.want {
			t.Errorf("tickURL(%q) = %q, %v; want %q", tc.addr, got, err, tc.want)
		}
	}
	if got, err := tickURL("8080", "/v1/tick"); err == nil {
		t.Errorf("tickURL of a port-less address = %q, want an error", got)
	}
}
