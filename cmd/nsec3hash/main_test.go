package main

import (
	"bytes"
	"context"
	"testing"
)

func TestRunVector(t *testing.T) {
	for args, want := range map[[4]string]string{
		// RFC 5155 Appendix A.
		{"AABBCCDD", "1", "12", "example"}: "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom (salt=AABBCCDD, hash=1, iterations=12)\n",
		{"-", "1", "0", "example.com"}:     "onib9mgub9h0rml3cdf5bgrj59dkjhvk (salt=-, hash=1, iterations=0)\n",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args[:], &stdout, &stderr); code != 0 {
			t.Fatalf("run(%q) exit %d: %s", args, code, stderr.String())
		}
		if stdout.String() != want {
			t.Errorf("run(%q) printed %q, want %q", args, stdout.String(), want)
		}
	}
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag", "AABB", "1", "12", "example"}, 2},
		{[]string{}, 2},
		{[]string{"AABB", "1", "12"}, 2},
		{[]string{"nothex", "1", "12", "example"}, 1},
		{[]string{"AABB", "abc", "12", "example"}, 1},
		{[]string{"AABB", "1", "notanumber", "example"}, 1},
		{[]string{"AABB", "1", "12", "bad..name"}, 1},
		{[]string{"AABB", "2", "12", "example"}, 1}, // unknown hash algorithm
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.want || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want %d and nothing printed", c.args, code, stdout.String(), c.want)
		}
	}
}
