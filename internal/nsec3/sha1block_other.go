//go:build !amd64

package nsec3

// haveSHA1Block reports false: the SHA-1 kernel exists for amd64 only.
func haveSHA1Block() bool { return false }

// sha1block is never called, because haveSHA1Block reports false.
func sha1block(state *[5]uint32, block *[16]uint32) {
	panic("nsec3: sha1block called without a SHA-1 kernel")
}
