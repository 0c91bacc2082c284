// func rowsTK12AVX512(n, rows, srcBox, srcRow, dstBox, dstRow int, tt, src, dst *float64)
//
// The K = 12 slab kernel of the avx512 backend: for r < rows and i < n,
//
//	dst[r*dstRow + i*dstBox : +12] += T * src[r*srcRow + i*srcBox : +12],
//
// tt = Tᵀ, row-major — rowsTAVX2's contract at K = 12, in rowsTAVX2's
// order: every destination element is one FMA chain from zero, ascending j,
// then one add into dst. An FMA rounds once whatever the vector width, so
// the bits are avx2's (TestDgemmRowsTOrderExact pins both to one
// transcription).
//
// Structure: the boxes of the slab are walked row-major by a cursor that
// wraps to the next row after n boxes, in groups of 8, 4, 2 and 1 that run
// across row ends — a clipped 7 x 7 plane is six groups of eight and one
// box, not seven rows of 4 + 2 + 1. A box's sums are one ZMM (columns 0-7)
// and one EVEX YMM (8-11): Z0-Z7 and Y16-Y23 for a group of eight, two FMA
// uops per box and source value where avx2 needs three. Row j of Tᵀ sits
// in Z8 and Y9, broadcasts rotate through Z10-Z13, and the j loop is
// unrolled (K is fixed), so sources and Tᵀ are addressed by displacement.
// A group reads every source before it stores any destination; rows.go
// rejects the aliased slabs for which that would matter.
//
// Registers:
//	SI  tt           DX  source cursor       DI  destination cursor
//	BX  boxes left   AX  source row count    CX  destination row count
//	R8-R15  the sources of a group's boxes
// The two cursors step one box at a time and count down the boxes left in
// their row; at zero they add the frame's wrap (Row - n*Box, in bytes) and
// restart the count at n.

#include "textflag.h"

// TROW loads row j of Tᵀ: columns 0-7 into Z8, 8-11 into Y9.
#define TROW(j) \
	VMOVUPD (j*96)(SI), Z8; \
	VMOVUPD (j*96+64)(SI), Y9

// FMAB folds source value j of the box at P into its sums Z (columns 0-7)
// and Y (8-11), broadcast through B, whose low half is BY.
#define FMAB(j, P, B, BY, Z, Y) \
	VBROADCASTSD (j*8)(P), B; \
	VFMADD231PD  Z8, B, Z; \
	VFMADD231PD  Y9, BY, Y

#define STEP8(j) \
	TROW(j); \
	FMAB(j, R8, Z10, Y10, Z0, Y16); \
	FMAB(j, R9, Z11, Y11, Z1, Y17); \
	FMAB(j, R10, Z12, Y12, Z2, Y18); \
	FMAB(j, R11, Z13, Y13, Z3, Y19); \
	FMAB(j, R12, Z10, Y10, Z4, Y20); \
	FMAB(j, R13, Z11, Y11, Z5, Y21); \
	FMAB(j, R14, Z12, Y12, Z6, Y22); \
	FMAB(j, R15, Z13, Y13, Z7, Y23)

#define STEP4(j) \
	TROW(j); \
	FMAB(j, R8, Z10, Y10, Z0, Y16); \
	FMAB(j, R9, Z11, Y11, Z1, Y17); \
	FMAB(j, R10, Z12, Y12, Z2, Y18); \
	FMAB(j, R11, Z13, Y13, Z3, Y19)

#define STEP2(j) \
	TROW(j); \
	FMAB(j, R8, Z10, Y10, Z0, Y16); \
	FMAB(j, R9, Z11, Y11, Z1, Y17)

#define STEP1(j) \
	TROW(j); \
	FMAB(j, R8, Z10, Y10, Z0, Y16)

// J12 runs one step macro for each source value of a box, j ascending.
#define J12(STEP) \
	STEP(0); STEP(1); STEP(2); STEP(3); STEP(4); STEP(5); \
	STEP(6); STEP(7); STEP(8); STEP(9); STEP(10); STEP(11)

#define ZERO2(Z, Y) \
	VXORPD Z, Z, Z; \
	VXORPD Y, Y, Y

TEXT ·rowsTK12AVX512(SB), NOSPLIT, $32-72
// SRCBOX sets P to the next box's source and steps the source cursor.
#define SRCBOX(P) \
	MOVQ DX, P; \
	ADDQ sbox-8(SP), DX; \
	DECQ AX; \
	JNZ  3(PC); \
	ADDQ swrap-16(SP), DX; \
	MOVQ n+0(FP), AX

// STOREBOX adds a box's sums Z and Y into its destination and steps the
// destination cursor.
#define STOREBOX(Z, Y) \
	VADDPD  (DI), Z, Z; \
	VMOVUPD Z, (DI); \
	VADDPD  64(DI), Y, Y; \
	VMOVUPD Y, 64(DI); \
	ADDQ    dbox-24(SP), DI; \
	DECQ    CX; \
	JNZ     3(PC); \
	ADDQ    dwrap-32(SP), DI; \
	MOVQ    n+0(FP), CX

	MOVQ  n+0(FP), CX
	MOVQ  rows+8(FP), BX
	IMULQ CX, BX
	MOVQ  srcBox+16(FP), AX
	SHLQ  $3, AX
	MOVQ  AX, sbox-8(SP)
	IMULQ CX, AX
	MOVQ  srcRow+24(FP), DX
	SHLQ  $3, DX
	SUBQ  AX, DX
	MOVQ  DX, swrap-16(SP)
	MOVQ  dstBox+32(FP), AX
	SHLQ  $3, AX
	MOVQ  AX, dbox-24(SP)
	IMULQ CX, AX
	MOVQ  dstRow+40(FP), DX
	SHLQ  $3, DX
	SUBQ  AX, DX
	MOVQ  DX, dwrap-32(SP)
	MOVQ  tt+48(FP), SI
	MOVQ  src+56(FP), DX
	MOVQ  dst+64(FP), DI

g8:
	CMPQ BX, $8
	JLT  g4
	MOVQ CX, AX
	SRCBOX(R8)
	SRCBOX(R9)
	SRCBOX(R10)
	SRCBOX(R11)
	SRCBOX(R12)
	SRCBOX(R13)
	SRCBOX(R14)
	SRCBOX(R15)
	ZERO2(Z0, Y16)
	ZERO2(Z1, Y17)
	ZERO2(Z2, Y18)
	ZERO2(Z3, Y19)
	ZERO2(Z4, Y20)
	ZERO2(Z5, Y21)
	ZERO2(Z6, Y22)
	ZERO2(Z7, Y23)
	J12(STEP8)
	STOREBOX(Z0, Y16)
	STOREBOX(Z1, Y17)
	STOREBOX(Z2, Y18)
	STOREBOX(Z3, Y19)
	STOREBOX(Z4, Y20)
	STOREBOX(Z5, Y21)
	STOREBOX(Z6, Y22)
	STOREBOX(Z7, Y23)
	SUBQ $8, BX
	JMP  g8

g4:
	CMPQ BX, $4
	JLT  g2
	MOVQ CX, AX
	SRCBOX(R8)
	SRCBOX(R9)
	SRCBOX(R10)
	SRCBOX(R11)
	ZERO2(Z0, Y16)
	ZERO2(Z1, Y17)
	ZERO2(Z2, Y18)
	ZERO2(Z3, Y19)
	J12(STEP4)
	STOREBOX(Z0, Y16)
	STOREBOX(Z1, Y17)
	STOREBOX(Z2, Y18)
	STOREBOX(Z3, Y19)
	SUBQ $4, BX

g2:
	CMPQ BX, $2
	JLT  g1
	MOVQ CX, AX
	SRCBOX(R8)
	SRCBOX(R9)
	ZERO2(Z0, Y16)
	ZERO2(Z1, Y17)
	J12(STEP2)
	STOREBOX(Z0, Y16)
	STOREBOX(Z1, Y17)
	SUBQ $2, BX

g1:
	TESTQ BX, BX
	JZ    done
	MOVQ  DX, R8
	ZERO2(Z0, Y16)
	J12(STEP1)
	VADDPD  (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	VADDPD  64(DI), Y16, Y16
	VMOVUPD Y16, 64(DI)

done:
	VZEROUPPER
	RET
