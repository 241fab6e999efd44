package nsec3

// sha1block runs one SHA-1 compression of block into state on the CPU's
// SHA extensions (sha1block_amd64.s). The block holds the sixteen
// big-endian message words as values. Call it only where haveSHA1Block
// reports true.
//
//go:noescape
func sha1block(state *[5]uint32, block *[16]uint32)

// cpuid executes the CPUID instruction for leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// haveSHA1Block reports whether this CPU runs sha1block: it has the SHA
// extensions (CPUID leaf 7, EBX bit 29) and SSSE3 and SSE4.1 (leaf 1,
// ECX bits 9 and 19), which Intel's SHA reference code assumes beside
// them; the kernel uses SSE4.1's PINSRD and PEXTRD.
func haveSHA1Block() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}
