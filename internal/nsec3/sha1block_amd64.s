#include "textflag.h"

// One SHA-1 compression on the SHA extensions, after Intel's reference
// sequence ("Intel SHA Extensions", Gulley et al., 2013). The block is
// sixteen big-endian message words already read into native uint32s, so
// loading one needs only a dword reversal (PSHUFD $0x1b) to put W0 in
// the high lane where SHA1RNDS4 expects it; no byte-swap mask is kept.
//
// X0 holds A B C D (A in the high lane), X1 and X2 take turns holding
// E plus the next four message words, X3-X6 are the sixteen-word
// message schedule, and X8 / X9 keep the incoming E and ABCD for the
// final addition.

// func sha1block(state *[5]uint32, block *[16]uint32)
TEXT ·sha1block(SB), NOSPLIT, $0-16
	MOVQ	state+0(FP), AX
	MOVQ	block+8(FP), BX

	MOVOU	(AX), X0
	PSHUFD	$0x1b, X0, X0
	PXOR	X1, X1
	PINSRD	$3, 16(AX), X1
	MOVO	X1, X8
	MOVO	X0, X9

	// Rounds 0-3
	MOVOU	0(BX), X3
	PSHUFD	$0x1b, X3, X3
	PADDD	X3, X1
	MOVO	X0, X2
	SHA1RNDS4	$0, X1, X0

	// Rounds 4-7
	MOVOU	16(BX), X4
	PSHUFD	$0x1b, X4, X4
	SHA1NEXTE	X4, X2
	MOVO	X0, X1
	SHA1RNDS4	$0, X2, X0
	SHA1MSG1	X4, X3

	// Rounds 8-11
	MOVOU	32(BX), X5
	PSHUFD	$0x1b, X5, X5
	SHA1NEXTE	X5, X1
	MOVO	X0, X2
	SHA1RNDS4	$0, X1, X0
	SHA1MSG1	X5, X4
	PXOR	X5, X3

	// Rounds 12-15
	MOVOU	48(BX), X6
	PSHUFD	$0x1b, X6, X6
	SHA1NEXTE	X6, X2
	MOVO	X0, X1
	SHA1MSG2	X6, X3
	SHA1RNDS4	$0, X2, X0
	SHA1MSG1	X6, X5
	PXOR	X6, X4

	// Rounds 16-19
	SHA1NEXTE	X3, X1
	MOVO	X0, X2
	SHA1MSG2	X3, X4
	SHA1RNDS4	$0, X1, X0
	SHA1MSG1	X3, X6
	PXOR	X3, X5

	// Rounds 20-23
	SHA1NEXTE	X4, X2
	MOVO	X0, X1
	SHA1MSG2	X4, X5
	SHA1RNDS4	$1, X2, X0
	SHA1MSG1	X4, X3
	PXOR	X4, X6

	// Rounds 24-27
	SHA1NEXTE	X5, X1
	MOVO	X0, X2
	SHA1MSG2	X5, X6
	SHA1RNDS4	$1, X1, X0
	SHA1MSG1	X5, X4
	PXOR	X5, X3

	// Rounds 28-31
	SHA1NEXTE	X6, X2
	MOVO	X0, X1
	SHA1MSG2	X6, X3
	SHA1RNDS4	$1, X2, X0
	SHA1MSG1	X6, X5
	PXOR	X6, X4

	// Rounds 32-35
	SHA1NEXTE	X3, X1
	MOVO	X0, X2
	SHA1MSG2	X3, X4
	SHA1RNDS4	$1, X1, X0
	SHA1MSG1	X3, X6
	PXOR	X3, X5

	// Rounds 36-39
	SHA1NEXTE	X4, X2
	MOVO	X0, X1
	SHA1MSG2	X4, X5
	SHA1RNDS4	$1, X2, X0
	SHA1MSG1	X4, X3
	PXOR	X4, X6

	// Rounds 40-43
	SHA1NEXTE	X5, X1
	MOVO	X0, X2
	SHA1MSG2	X5, X6
	SHA1RNDS4	$2, X1, X0
	SHA1MSG1	X5, X4
	PXOR	X5, X3

	// Rounds 44-47
	SHA1NEXTE	X6, X2
	MOVO	X0, X1
	SHA1MSG2	X6, X3
	SHA1RNDS4	$2, X2, X0
	SHA1MSG1	X6, X5
	PXOR	X6, X4

	// Rounds 48-51
	SHA1NEXTE	X3, X1
	MOVO	X0, X2
	SHA1MSG2	X3, X4
	SHA1RNDS4	$2, X1, X0
	SHA1MSG1	X3, X6
	PXOR	X3, X5

	// Rounds 52-55
	SHA1NEXTE	X4, X2
	MOVO	X0, X1
	SHA1MSG2	X4, X5
	SHA1RNDS4	$2, X2, X0
	SHA1MSG1	X4, X3
	PXOR	X4, X6

	// Rounds 56-59
	SHA1NEXTE	X5, X1
	MOVO	X0, X2
	SHA1MSG2	X5, X6
	SHA1RNDS4	$2, X1, X0
	SHA1MSG1	X5, X4
	PXOR	X5, X3

	// Rounds 60-63
	SHA1NEXTE	X6, X2
	MOVO	X0, X1
	SHA1MSG2	X6, X3
	SHA1RNDS4	$3, X2, X0
	SHA1MSG1	X6, X5
	PXOR	X6, X4

	// Rounds 64-67
	SHA1NEXTE	X3, X1
	MOVO	X0, X2
	SHA1MSG2	X3, X4
	SHA1RNDS4	$3, X1, X0
	SHA1MSG1	X3, X6
	PXOR	X3, X5

	// Rounds 68-71
	SHA1NEXTE	X4, X2
	MOVO	X0, X1
	SHA1MSG2	X4, X5
	SHA1RNDS4	$3, X2, X0
	PXOR	X4, X6

	// Rounds 72-75
	SHA1NEXTE	X5, X1
	MOVO	X0, X2
	SHA1MSG2	X5, X6
	SHA1RNDS4	$3, X1, X0

	// Rounds 76-79
	SHA1NEXTE	X6, X2
	MOVO	X0, X1
	SHA1RNDS4	$3, X2, X0

	// Add the incoming state back and store A B C D E.
	SHA1NEXTE	X8, X1
	PADDD	X9, X0
	PSHUFD	$0x1b, X0, X0
	MOVOU	X0, (AX)
	PEXTRD	$3, X1, 16(AX)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	subleaf+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET
