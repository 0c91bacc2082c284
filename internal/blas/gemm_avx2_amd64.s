// AVX2/FMA streaming GEMM kernels (the avx2 backend of dispatch.go).
//
// Reduction order (the avx2 backend's reproducibility contract): every C
// element is one fused-multiply-add chain ascending k,
//
//	s = c[i,j]; for kk = 0..k-1: s = fma(a[i,kk], b[kk,j], s)
//
// identical in every lane, every column-block width, and the masked tail,
// so results are bitwise reproducible call to call and exactly modeled by
// the math.FMA transcription in gemm_kernels_test.go.
//
// Structure: one row of C at a time, column blocks of 32/16/4 doubles held
// in YMM accumulators across the whole k loop (eight independent FMA chains
// in the 32-wide block hide the 4-cycle FMA latency), B rows streamed as
// memory operands, and a VMASKMOVPD tail for n % 4 trailing columns. The
// shared body is gemmbody<>; the exported entries differ only in how they
// bind k (runtime, 12, or 72).
//
// gemmbody<> register contract:
//	R8  m    R9  k    R10 n    R11 n*8
//	SI  a row    DX  b base    DI  c row
// (clobbers AX BX CX R13 R14 R15 and Y0-Y10.)

#include "textflag.h"

// masktab<>[r] is the VMASKMOVPD lane mask covering r trailing doubles.
DATA masktab<>+0x00(SB)/8, $0x0000000000000000
DATA masktab<>+0x08(SB)/8, $0x0000000000000000
DATA masktab<>+0x10(SB)/8, $0x0000000000000000
DATA masktab<>+0x18(SB)/8, $0x0000000000000000
DATA masktab<>+0x20(SB)/8, $0xffffffffffffffff
DATA masktab<>+0x28(SB)/8, $0x0000000000000000
DATA masktab<>+0x30(SB)/8, $0x0000000000000000
DATA masktab<>+0x38(SB)/8, $0x0000000000000000
DATA masktab<>+0x40(SB)/8, $0xffffffffffffffff
DATA masktab<>+0x48(SB)/8, $0xffffffffffffffff
DATA masktab<>+0x50(SB)/8, $0x0000000000000000
DATA masktab<>+0x58(SB)/8, $0x0000000000000000
DATA masktab<>+0x60(SB)/8, $0xffffffffffffffff
DATA masktab<>+0x68(SB)/8, $0xffffffffffffffff
DATA masktab<>+0x70(SB)/8, $0xffffffffffffffff
DATA masktab<>+0x78(SB)/8, $0x0000000000000000
GLOBL masktab<>(SB), RODATA, $128

TEXT gemmbody<>(SB), NOSPLIT, $0-0
rowloop:
	TESTQ R8, R8
	JLE   bodydone
	XORQ  BX, BX             // j = 0

col32:
	LEAQ  32(BX), AX
	CMPQ  AX, R10
	JG    col16
	LEAQ  (DI)(BX*8), R13    // &c[i*n+j]
	LEAQ  (DX)(BX*8), R14    // &b[j]
	MOVQ  SI, R15            // &a[i*k]
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
	VMOVUPD 128(R13), Y4
	VMOVUPD 160(R13), Y5
	VMOVUPD 192(R13), Y6
	VMOVUPD 224(R13), Y7
	MOVQ  R9, CX
	SHRQ  $1, CX             // k/2 paired iterations
	JZ    k32odd
k32pair:
	VBROADCASTSD (R15), Y8
	VFMADD231PD (R14), Y8, Y0
	VFMADD231PD 32(R14), Y8, Y1
	VFMADD231PD 64(R14), Y8, Y2
	VFMADD231PD 96(R14), Y8, Y3
	VFMADD231PD 128(R14), Y8, Y4
	VFMADD231PD 160(R14), Y8, Y5
	VFMADD231PD 192(R14), Y8, Y6
	VFMADD231PD 224(R14), Y8, Y7
	ADDQ  R11, R14
	VBROADCASTSD 8(R15), Y9
	VFMADD231PD (R14), Y9, Y0
	VFMADD231PD 32(R14), Y9, Y1
	VFMADD231PD 64(R14), Y9, Y2
	VFMADD231PD 96(R14), Y9, Y3
	VFMADD231PD 128(R14), Y9, Y4
	VFMADD231PD 160(R14), Y9, Y5
	VFMADD231PD 192(R14), Y9, Y6
	VFMADD231PD 224(R14), Y9, Y7
	ADDQ  R11, R14
	ADDQ  $16, R15
	DECQ  CX
	JNZ   k32pair
k32odd:
	TESTQ $1, R9
	JZ    k32done
	VBROADCASTSD (R15), Y8
	VFMADD231PD (R14), Y8, Y0
	VFMADD231PD 32(R14), Y8, Y1
	VFMADD231PD 64(R14), Y8, Y2
	VFMADD231PD 96(R14), Y8, Y3
	VFMADD231PD 128(R14), Y8, Y4
	VFMADD231PD 160(R14), Y8, Y5
	VFMADD231PD 192(R14), Y8, Y6
	VFMADD231PD 224(R14), Y8, Y7
k32done:
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	VMOVUPD Y4, 128(R13)
	VMOVUPD Y5, 160(R13)
	VMOVUPD Y6, 192(R13)
	VMOVUPD Y7, 224(R13)
	ADDQ  $32, BX
	JMP   col32

col16:
	LEAQ  16(BX), AX
	CMPQ  AX, R10
	JG    col4
	LEAQ  (DI)(BX*8), R13
	LEAQ  (DX)(BX*8), R14
	MOVQ  SI, R15
	MOVQ  R9, CX
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
k16:
	VBROADCASTSD (R15), Y8
	VFMADD231PD (R14), Y8, Y0
	VFMADD231PD 32(R14), Y8, Y1
	VFMADD231PD 64(R14), Y8, Y2
	VFMADD231PD 96(R14), Y8, Y3
	ADDQ  $8, R15
	ADDQ  R11, R14
	DECQ  CX
	JNZ   k16
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	ADDQ  $16, BX
	JMP   col16

col4:
	LEAQ  4(BX), AX
	CMPQ  AX, R10
	JG    coltail
	LEAQ  (DI)(BX*8), R13
	LEAQ  (DX)(BX*8), R14
	MOVQ  SI, R15
	MOVQ  R9, CX
	VMOVUPD (R13), Y0
k4:
	VBROADCASTSD (R15), Y8
	VFMADD231PD (R14), Y8, Y0
	ADDQ  $8, R15
	ADDQ  R11, R14
	DECQ  CX
	JNZ   k4
	VMOVUPD Y0, (R13)
	ADDQ  $4, BX
	JMP   col4

coltail:
	MOVQ  R10, AX
	SUBQ  BX, AX             // r = n - j, 0..3
	TESTQ AX, AX
	JZ    rowdone
	SHLQ  $5, AX
	LEAQ  masktab<>(SB), CX
	VMOVUPD (CX)(AX*1), Y9   // lane mask for r doubles
	LEAQ  (DI)(BX*8), R13
	LEAQ  (DX)(BX*8), R14
	MOVQ  SI, R15
	MOVQ  R9, CX
	VMASKMOVPD (R13), Y9, Y0
ktail:
	VBROADCASTSD (R15), Y8
	VMASKMOVPD (R14), Y9, Y10
	VFMADD231PD Y10, Y8, Y0
	ADDQ  $8, R15
	ADDQ  R11, R14
	DECQ  CX
	JNZ   ktail
	VMASKMOVPD Y0, Y9, (R13)

rowdone:
	LEAQ  (SI)(R9*8), SI     // next a row
	ADDQ  R11, DI            // next c row
	DECQ  R8
	JNZ   rowloop
bodydone:
	RET

// func dgemmAVX2(m, k, n int, a, b, c *float64)
TEXT ·dgemmAVX2(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), R8
	MOVQ k+8(FP), R9
	MOVQ n+16(FP), R10
	MOVQ a+24(FP), SI
	MOVQ b+32(FP), DX
	MOVQ c+40(FP), DI
	MOVQ R10, R11
	SHLQ $3, R11
	CALL gemmbody<>(SB)
	VZEROUPPER
	RET

// func gemmK12AVX2(m, n int, a, b, c *float64)
//
// The K = 12 constant-trip entry (icosahedral rule): the paired k loop runs
// exactly six times with no odd remainder.
TEXT ·gemmK12AVX2(SB), NOSPLIT, $0-40
	MOVQ m+0(FP), R8
	MOVQ $12, R9
	MOVQ n+8(FP), R10
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ R10, R11
	SHLQ $3, R11
	CALL gemmbody<>(SB)
	VZEROUPPER
	RET

// func gemmK72AVX2(m, n int, a, b, c *float64)
//
// The K = 72 constant-trip entry (product rule): 36 paired k iterations.
TEXT ·gemmK72AVX2(SB), NOSPLIT, $0-40
	MOVQ m+0(FP), R8
	MOVQ $72, R9
	MOVQ n+8(FP), R10
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ R10, R11
	SHLQ $3, R11
	CALL gemmbody<>(SB)
	VZEROUPPER
	RET

// func dgemvAVX2(rows, cols int, a, x, y *float64)
//
// y += A*x, one row at a time. Reduction order: two four-lane accumulators
// — acc0 takes column groups j ≡ 0 (mod 8) and the lone 4-wide group, acc1
// takes groups j ≡ 4 (mod 8) and the masked tail — then
// hsum(acc0 + acc1) = (l0+l2) + (l1+l3), added into y[i].
TEXT ·dgemvAVX2(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), R8
	MOVQ cols+8(FP), R9
	MOVQ a+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ y+32(FP), DI
	MOVQ R9, R12
	ANDQ $3, R12             // tail lane count
	JZ   gvrows
	MOVQ R12, AX
	SHLQ $5, AX
	LEAQ masktab<>(SB), CX
	VMOVUPD (CX)(AX*1), Y9
gvrows:
	TESTQ R8, R8
	JLE   gvdone
gvrow:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ  BX, BX
gv8:
	LEAQ  8(BX), AX
	CMPQ  AX, R9
	JG    gv4
	VMOVUPD (SI)(BX*8), Y2
	VMOVUPD 32(SI)(BX*8), Y3
	VFMADD231PD (DX)(BX*8), Y2, Y0
	VFMADD231PD 32(DX)(BX*8), Y3, Y1
	ADDQ  $8, BX
	JMP   gv8
gv4:
	LEAQ  4(BX), AX
	CMPQ  AX, R9
	JG    gvtail
	VMOVUPD (SI)(BX*8), Y2
	VFMADD231PD (DX)(BX*8), Y2, Y0
	ADDQ  $4, BX
gvtail:
	TESTQ R12, R12
	JZ    gvsum
	VMASKMOVPD (SI)(BX*8), Y9, Y2
	VMASKMOVPD (DX)(BX*8), Y9, Y3
	VFMADD231PD Y3, Y2, Y1
gvsum:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ  $8, DI
	LEAQ  (SI)(R9*8), SI
	DECQ  R8
	JNZ   gvrow
gvdone:
	VZEROUPPER
	RET

// func rowsTAVX2(k, n, srcStride, dstStride int, tt, src, dst *float64)
//
// The gather-free row kernel (rows.go): for i < n,
//
//	dst[i*dstStride : +k] += T * src[i*srcStride : +k],   tt = Tᵀ, row-major.
//
// Reduction order: every destination element is one FMA chain from zero,
// ascending j — s = fma(tt[j,c], src[j], s) — then one add into dst.
//
// Structure: destination columns in blocks of 12 (three YMM), boxes in
// groups of 4, 2 and 1, so the full group holds 4 x 12 sums in Y0-Y11 —
// twelve independent chains against the 4-cycle FMA latency — while row j
// of the Tᵀ panel sits in Y12-Y14 and one broadcast source value in Y15.
// With K = 12 that is the whole matrix per box group and the j loop is the
// only loop. The column block is the outer loop, so at large K a 12-wide
// panel of Tᵀ stays in L1 across the boxes of the row. The trailing k % 12
// columns go four at a time through one masked vector (Y14 holds the mask).
//
// Registers:
//	R8  k      R9  3*srcStride bytes   R10 srcStride bytes   R11 k*8
//	SI  tt     DX  src                 DI  dst               BX  column
//	CX  boxes left   R12 src box   R13 dst box+column
//	R14 tt panel row   AX  src element   R15 j countdown
// The j loops address sources only. The destination stride is needed once
// per box group, after its j loop, when R14 and R15 are dead: DSTSTRIDES
// reloads it into them from the frame.

#define ZERO3(a, b, c) \
	VXORPD a, a, a; \
	VXORPD b, b, b; \
	VXORPD c, c, c

// FMA3 folds one source value into the three sums of a box.
#define FMA3(src, a, b, c) \
	VBROADCASTSD src, Y15; \
	VFMADD231PD Y12, Y15, a; \
	VFMADD231PD Y13, Y15, b; \
	VFMADD231PD Y14, Y15, c

// ADD3 adds a box's three sums into its destination.
#define ADD3(d0, d1, d2, a, b, c) \
	VADDPD d0, a, a; \
	VMOVUPD a, d0; \
	VADDPD d1, b, b; \
	VMOVUPD b, d1; \
	VADDPD d2, c, c; \
	VMOVUPD c, d2

// FMA1M/ADD1M are the masked-tail forms: one vector per box, mask in Y14,
// panel row in Y12, Y13 scratch.
#define FMA1M(src, a) \
	VBROADCASTSD src, Y15; \
	VFMADD231PD Y12, Y15, a

#define ADD1M(d, a) \
	VMASKMOVPD d, Y14, Y13; \
	VADDPD Y13, a, a; \
	VMASKMOVPD a, Y14, d

TEXT ·rowsTAVX2(SB), NOSPLIT, $0-56
// DSTSTRIDES sets R14 = dstStride bytes, R15 = 3*dstStride bytes. (Defined
// inside the function so that vet checks the frame reference against it.)
#define DSTSTRIDES \
	MOVQ dstStride+24(FP), R14; \
	SHLQ $3, R14; \
	LEAQ (R14)(R14*2), R15

	MOVQ k+0(FP), R8
	MOVQ srcStride+16(FP), R10
	MOVQ tt+32(FP), SI
	MOVQ src+40(FP), DX
	MOVQ dst+48(FP), DI
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R9
	MOVQ R8, R11
	SHLQ $3, R11
	XORQ BX, BX

rtcol:
	LEAQ 12(BX), AX
	CMPQ AX, R8
	JG   rttail
	MOVQ n+8(FP), CX
	MOVQ DX, R12
	LEAQ (DI)(BX*8), R13

rtf4:
	CMPQ CX, $4
	JL   rtf2
	ZERO3(Y0, Y1, Y2)
	ZERO3(Y3, Y4, Y5)
	ZERO3(Y6, Y7, Y8)
	ZERO3(Y9, Y10, Y11)
	LEAQ (SI)(BX*8), R14
	MOVQ R12, AX
	MOVQ R8, R15
rtf4j:
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VMOVUPD 64(R14), Y14
	FMA3((AX), Y0, Y1, Y2)
	FMA3((AX)(R10*1), Y3, Y4, Y5)
	FMA3((AX)(R10*2), Y6, Y7, Y8)
	FMA3((AX)(R9*1), Y9, Y10, Y11)
	ADDQ R11, R14
	ADDQ $8, AX
	DECQ R15
	JNZ  rtf4j
	DSTSTRIDES
	ADD3((R13), 32(R13), 64(R13), Y0, Y1, Y2)
	ADD3((R13)(R14*1), 32(R13)(R14*1), 64(R13)(R14*1), Y3, Y4, Y5)
	ADD3((R13)(R14*2), 32(R13)(R14*2), 64(R13)(R14*2), Y6, Y7, Y8)
	ADD3((R13)(R15*1), 32(R13)(R15*1), 64(R13)(R15*1), Y9, Y10, Y11)
	LEAQ (R12)(R10*4), R12
	LEAQ (R13)(R14*4), R13
	SUBQ $4, CX
	JMP  rtf4

rtf2:
	CMPQ CX, $2
	JL   rtf1
	ZERO3(Y0, Y1, Y2)
	ZERO3(Y3, Y4, Y5)
	LEAQ (SI)(BX*8), R14
	MOVQ R12, AX
	MOVQ R8, R15
rtf2j:
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VMOVUPD 64(R14), Y14
	FMA3((AX), Y0, Y1, Y2)
	FMA3((AX)(R10*1), Y3, Y4, Y5)
	ADDQ R11, R14
	ADDQ $8, AX
	DECQ R15
	JNZ  rtf2j
	DSTSTRIDES
	ADD3((R13), 32(R13), 64(R13), Y0, Y1, Y2)
	ADD3((R13)(R14*1), 32(R13)(R14*1), 64(R13)(R14*1), Y3, Y4, Y5)
	LEAQ (R12)(R10*2), R12
	LEAQ (R13)(R14*2), R13
	SUBQ $2, CX

rtf1:
	TESTQ CX, CX
	JLE  rtcolnext
	ZERO3(Y0, Y1, Y2)
	LEAQ (SI)(BX*8), R14
	MOVQ R12, AX
	MOVQ R8, R15
rtf1j:
	VBROADCASTSD (AX), Y15
	VFMADD231PD (R14), Y15, Y0
	VFMADD231PD 32(R14), Y15, Y1
	VFMADD231PD 64(R14), Y15, Y2
	ADDQ R11, R14
	ADDQ $8, AX
	DECQ R15
	JNZ  rtf1j
	ADD3((R13), 32(R13), 64(R13), Y0, Y1, Y2)

rtcolnext:
	ADDQ $12, BX
	JMP  rtcol

rttail:
	MOVQ R8, AX
	SUBQ BX, AX              // columns left, 0..11
	JLE  rtdone
	VPCMPEQQ Y14, Y14, Y14   // a full vector of four columns
	CMPQ AX, $4
	JGE  rtmasked
	SHLQ $5, AX
	LEAQ masktab<>(SB), CX
	VMOVUPD (CX)(AX*1), Y14  // the last 1..3 columns
rtmasked:
	MOVQ n+8(FP), CX
	MOVQ DX, R12
	LEAQ (DI)(BX*8), R13

rtt4:
	CMPQ CX, $4
	JL   rtt1
	ZERO3(Y0, Y1, Y2)
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(BX*8), R14
	MOVQ R12, AX
	MOVQ R8, R15
rtt4j:
	VMASKMOVPD (R14), Y14, Y12
	FMA1M((AX), Y0)
	FMA1M((AX)(R10*1), Y1)
	FMA1M((AX)(R10*2), Y2)
	FMA1M((AX)(R9*1), Y3)
	ADDQ R11, R14
	ADDQ $8, AX
	DECQ R15
	JNZ  rtt4j
	DSTSTRIDES
	ADD1M((R13), Y0)
	ADD1M((R13)(R14*1), Y1)
	ADD1M((R13)(R14*2), Y2)
	ADD1M((R13)(R15*1), Y3)
	LEAQ (R12)(R10*4), R12
	LEAQ (R13)(R14*4), R13
	SUBQ $4, CX
	JMP  rtt4

rtt1:
	TESTQ CX, CX
	JLE  rttailnext
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(BX*8), R14
	MOVQ R12, AX
	MOVQ R8, R15
rtt1j:
	VMASKMOVPD (R14), Y14, Y12
	FMA1M((AX), Y0)
	ADDQ R11, R14
	ADDQ $8, AX
	DECQ R15
	JNZ  rtt1j
	ADD1M((R13), Y0)
	DSTSTRIDES
	ADDQ R10, R12
	ADDQ R14, R13
	DECQ CX
	JMP  rtt1

rttailnext:
	ADDQ $4, BX
	JMP  rttail

rtdone:
	VZEROUPPER
	RET
