// AVX2/FMA near-field kernels. The pair and force routines vectorize the
// source (inner) loop of their scalar twin four-wide, keeping the target
// (outer) loop serial, and are only ever called with a source count that is
// a positive multiple of 4 — the Go wrappers in nf_avx2_amd64.go truncate
// and run the 0-3 leftover sources through the scalar kernel, so no masked
// loads are needed and no load touches memory past the truncated count.
// accumPotSoAAVX2 puts targets in lanes instead, and takes a target count
// that is a multiple of 4 (its own comment).
//
// The coincident-particle guard (`if r2 == 0 continue` / `if r2 > 0`) is a
// VCMPPD lane mask applied by VANDPD to every value headed for an
// accumulator: a dead lane's Inf or NaN (from dividing by the zero
// distance) is bitwise-ANDed to +0 before it can reach a sum, reproducing
// the scalar exclusion exactly. Kernels that guard with `r2 > 0` compare
// GT_OQ (predicate 30: false on NaN, like the scalar `>`); kernels that
// guard with `r2 == 0 continue` compare NEQ_UQ (predicate 4: true on NaN,
// like the scalar `==` falling through).
//
// Lane partial sums of the source-in-lanes routines collapse as (l0+l2) + (l1+l3) — VEXTRACTF128 +
// VADDPD + VHADDPD, the same horizontal order as the blas Dgemv kernel —
// which together with the serial outer loop makes every routine
// deterministic: the avx2 half of the per-backend reproducibility
// contract (dispatch.go).

#include "textflag.h"

DATA nfones<>+0(SB)/8, $1.0
DATA nfones<>+8(SB)/8, $1.0
DATA nfones<>+16(SB)/8, $1.0
DATA nfones<>+24(SB)/8, $1.0
GLOBL nfones<>(SB), RODATA|NOPTR, $32

// HSUM collapses the 4 lanes of Yv into lane 0 of its low half Xv as
// (l0+l2) + (l1+l3), clobbering Xt.
#define HSUM(Yv, Xv, Xt) \
	VEXTRACTF128 $1, Yv, Xt \
	VADDPD       Xt, Xv, Xv \
	VHADDPD      Xv, Xv, Xv

// AOSX/AOSY/AOSZ transpose a 4-particle AoS block into coordinate lanes.
// The block is three YMM loads over 96 bytes:
//   Ya = [x0 y0 z0 x1]   Yb = [y1 z1 x2 y2]   Yc = [z2 x3 y3 z3]
// Each macro gathers one coordinate into Yd = [c0 c1 c2 c3] via VPERMPD
// lane selects blended together, clobbering Yt.
#define AOSX(Ya, Yb, Yc, Yd, Yt) \
	VPERMPD  $0x0C, Ya, Yd \
	VPERMPD  $0x20, Yb, Yt \
	VBLENDPD $4, Yt, Yd, Yd \
	VPERMPD  $0x40, Yc, Yt \
	VBLENDPD $8, Yt, Yd, Yd

#define AOSY(Ya, Yb, Yc, Yd, Yt) \
	VPERMPD  $0x01, Ya, Yd \
	VPERMPD  $0x30, Yb, Yt \
	VBLENDPD $6, Yt, Yd, Yd \
	VPERMPD  $0x80, Yc, Yt \
	VBLENDPD $8, Yt, Yd, Yd

#define AOSZ(Ya, Yb, Yc, Yd, Yt) \
	VPERMPD  $0x02, Ya, Yd \
	VPERMPD  $0x04, Yb, Yt \
	VBLENDPD $2, Yt, Yd, Yd \
	VPERMPD  $0xC0, Yc, Yt \
	VBLENDPD $0xC, Yt, Yd, Yd

// func accumPotSoAAVX2(xs, ys, zs, phi *float64, cnt int, sx, sy, sz, sq *float64, scnt int)
// One-sided SoA potential, targets in lanes: phi[i] += sum_j sq[j]/r,
// guard r2 > 0, for cnt (a multiple of four) targets against scnt >= 1
// sources. Each lane is one target and its sum runs over j ascending with
// the scalar body's roundings — r2 = (dx*dx + dy*dy) + dz*dz unfused, then
// VSQRTPD and VDIVPD — so every target gets accumPotSoAScalar's bits and no
// lanes are combined.
TEXT ·accumPotSoAAVX2(SB), NOSPLIT, $0-80
	MOVQ xs+0(FP), SI
	MOVQ ys+8(FP), DI
	MOVQ zs+16(FP), R8
	MOVQ phi+24(FP), R9
	MOVQ cnt+32(FP), R10
	MOVQ sx+40(FP), R11
	MOVQ sy+48(FP), R12
	MOVQ sz+56(FP), R13
	MOVQ sq+64(FP), R14
	MOVQ scnt+72(FP), R15
	XORQ AX, AX               // first target of the group
	VXORPD Y15, Y15, Y15      // +0

psoai:
	CMPQ    AX, R10
	JGE     psoadone
	VMOVUPD (SI)(AX*8), Y1    // target x, four lanes
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VXORPD  Y0, Y0, Y0        // acc
	XORQ    BX, BX            // source j

psoaj:
	VBROADCASTSD (R11)(BX*8), Y4
	VSUBPD       Y4, Y1, Y5   // dx = xi - sx
	VBROADCASTSD (R12)(BX*8), Y4
	VSUBPD       Y4, Y2, Y6   // dy
	VBROADCASTSD (R13)(BX*8), Y4
	VSUBPD       Y4, Y3, Y7   // dz
	VMULPD       Y5, Y5, Y8
	VMULPD       Y6, Y6, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       Y7, Y7, Y9
	VADDPD       Y9, Y8, Y8   // r2
	VCMPPD       $30, Y15, Y8, Y9 // mask = r2 > 0 (GT_OQ)
	VSQRTPD      Y8, Y8       // r
	VBROADCASTSD (R14)(BX*8), Y4
	VDIVPD       Y8, Y4, Y4   // sq / r
	VANDPD       Y9, Y4, Y4   // dead lanes -> +0
	VADDPD       Y4, Y0, Y0
	INCQ         BX
	CMPQ         BX, R15
	JLT          psoaj

	VADDPD  (R9)(AX*8), Y0, Y0
	VMOVUPD Y0, (R9)(AX*8)
	ADDQ    $4, AX
	JMP     psoai

psoadone:
	VZEROUPPER
	RET

// func pairPotSoAAVX2(xs, ys, zs, qs, phi *float64, cnt int, sx, sy, sz, sq, sphi *float64, scnt int)
// Symmetric traveling SoA potential: phi[i] += sum sq[j]*inv and
// sphi[j] += qs[i]*inv, guard r2 != 0.
TEXT ·pairPotSoAAVX2(SB), NOSPLIT, $0-96
	MOVQ xs+0(FP), SI
	MOVQ ys+8(FP), DI
	MOVQ zs+16(FP), R8
	MOVQ cnt+40(FP), R10
	MOVQ sx+48(FP), R11
	MOVQ sy+56(FP), R12
	MOVQ sz+64(FP), R13
	MOVQ sq+72(FP), R14
	MOVQ sphi+80(FP), CX
	MOVQ scnt+88(FP), R15
	SHLQ $3, R15
	XORQ AX, AX

pairi:
	CMPQ AX, R10
	JGE  pairdone
	VBROADCASTSD (SI)(AX*8), Y4
	VBROADCASTSD (DI)(AX*8), Y5
	VBROADCASTSD (R8)(AX*8), Y6
	MOVQ         qs+24(FP), DX
	VBROADCASTSD (DX)(AX*8), Y7 // qi
	VXORPD       Y0, Y0, Y0     // acc
	XORQ         BX, BX

pairj:
	VMOVUPD     (R11)(BX*1), Y8
	VSUBPD      Y8, Y4, Y8    // dx = xi - sx
	VMOVUPD     (R12)(BX*1), Y9
	VSUBPD      Y9, Y5, Y9    // dy
	VMOVUPD     (R13)(BX*1), Y10
	VSUBPD      Y10, Y6, Y10  // dz
	VMULPD      Y8, Y8, Y11
	VFMADD231PD Y9, Y9, Y11
	VFMADD231PD Y10, Y10, Y11 // r2
	VXORPD      Y12, Y12, Y12
	VCMPPD      $4, Y12, Y11, Y12 // mask = r2 != 0 (NEQ_UQ)
	VSQRTPD     Y11, Y11      // r
	VMOVUPD     nfones<>(SB), Y13
	VDIVPD      Y11, Y13, Y11 // inv = 1/r
	VANDPD      Y12, Y11, Y11 // masked inv serves both deposits
	VMOVUPD     (R14)(BX*1), Y13
	VFMADD231PD Y11, Y13, Y0  // acc += sq*inv
	VMOVUPD     (CX)(BX*1), Y13
	VFMADD231PD Y7, Y11, Y13  // sphi += qi*inv
	VMOVUPD     Y13, (CX)(BX*1)
	ADDQ        $32, BX
	CMPQ        BX, R15
	JLT         pairj

	HSUM(Y0, X0, X13)
	MOVQ   phi+32(FP), DX
	VADDSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DX)(AX*8)
	INCQ   AX
	JMP    pairi

pairdone:
	VZEROUPPER
	RET

// func accumForceAoSAVX2(pa, acc *geom.Vec3, cnt int, pb *geom.Vec3, q *float64, scnt int)
// One-sided AoS field: acc[i] += sum (b-a) * q[j]/(r2*r), guard r2 != 0.
TEXT ·accumForceAoSAVX2(SB), NOSPLIT, $0-48
	MOVQ   pa+0(FP), SI
	MOVQ   acc+8(FP), DI
	MOVQ   cnt+16(FP), R10
	MOVQ   pb+24(FP), R11
	MOVQ   q+32(FP), R14
	MOVQ   scnt+40(FP), R15
	IMUL3Q $24, R15, R15

faosi:
	TESTQ R10, R10
	JZ    faosdone
	VBROADCASTSD (SI), Y3     // xi
	VBROADCASTSD 8(SI), Y4    // yi
	VBROADCASTSD 16(SI), Y5   // zi
	VXORPD Y0, Y0, Y0         // fx
	VXORPD Y1, Y1, Y1         // fy
	VXORPD Y2, Y2, Y2         // fz
	XORQ   BX, BX
	XORQ   CX, CX

faosj:
	VMOVUPD (R11)(BX*1), Y6
	VMOVUPD 32(R11)(BX*1), Y7
	VMOVUPD 64(R11)(BX*1), Y8
	AOSX(Y6, Y7, Y8, Y9, Y12)
	AOSY(Y6, Y7, Y8, Y10, Y12)
	AOSZ(Y6, Y7, Y8, Y11, Y12)
	VSUBPD      Y3, Y9, Y9    // dx = bx - xi
	VSUBPD      Y4, Y10, Y10  // dy
	VSUBPD      Y5, Y11, Y11  // dz
	VMULPD      Y9, Y9, Y12
	VFMADD231PD Y10, Y10, Y12
	VFMADD231PD Y11, Y11, Y12 // r2
	VXORPD      Y13, Y13, Y13
	VCMPPD      $4, Y13, Y12, Y13 // mask = r2 != 0 (NEQ_UQ)
	VSQRTPD     Y12, Y14      // r
	VMULPD      Y14, Y12, Y14 // r2*r
	VMOVUPD     nfones<>(SB), Y6
	VDIVPD      Y14, Y6, Y6   // inv = 1/(r2*r)
	VMOVUPD     (R14)(CX*1), Y7
	VMULPD      Y6, Y7, Y7    // w = q*inv
	VANDPD      Y13, Y7, Y7
	VFMADD231PD Y9, Y7, Y0    // fx += w*dx
	VFMADD231PD Y10, Y7, Y1
	VFMADD231PD Y11, Y7, Y2
	ADDQ        $96, BX
	ADDQ        $32, CX
	CMPQ        BX, R15
	JLT         faosj

	HSUM(Y0, X0, X13)
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	HSUM(Y1, X1, X13)
	VADDSD 8(DI), X1, X1
	VMOVSD X1, 8(DI)
	HSUM(Y2, X2, X13)
	VADDSD 16(DI), X2, X2
	VMOVSD X2, 16(DI)
	ADDQ   $24, SI
	ADDQ   $24, DI
	DECQ   R10
	JMP    faosi

faosdone:
	VZEROUPPER
	RET

// func pairFusedSoAAVX2(xs, ys, zs, qs, phi, gx, gy, gz *float64, cnt int, sx, sy, sz, sq, sphi, sgx, sgy, sgz *float64, scnt int)
// Symmetric SoA potential + field from one inv = 1/sqrt(r2), d = source -
// target: the target sums q[j]*inv and d*(q[j]*inv)*(inv*inv) and takes them
// once; source j takes qs[i]*inv and -d*(qs[i]*inv)*(inv*inv) in place.
// Guard r2 != 0, the mask applied to inv before any multiply can turn a dead
// lane's Inf into NaN.
TEXT ·pairFusedSoAAVX2(SB), NOSPLIT, $0-144
	MOVQ    cnt+64(FP), SI
	MOVQ    sx+72(FP), R8
	MOVQ    sy+80(FP), R9
	MOVQ    sz+88(FP), R10
	MOVQ    sq+96(FP), R11
	MOVQ    sphi+104(FP), R12
	MOVQ    sgx+112(FP), R13
	MOVQ    sgy+120(FP), R14
	MOVQ    sgz+128(FP), R15
	MOVQ    scnt+136(FP), CX
	SHLQ    $3, CX            // source bytes (multiple of 32)
	VMOVUPD nfones<>(SB), Y15
	XORQ    AX, AX            // i

pfi:
	CMPQ AX, SI
	JGE  pfdone
	MOVQ         xs+0(FP), DX
	VBROADCASTSD (DX)(AX*8), Y4
	MOVQ         ys+8(FP), DX
	VBROADCASTSD (DX)(AX*8), Y5
	MOVQ         zs+16(FP), DX
	VBROADCASTSD (DX)(AX*8), Y6
	MOVQ         qs+24(FP), DX
	VBROADCASTSD (DX)(AX*8), Y7 // qi
	VXORPD Y0, Y0, Y0         // p
	VXORPD Y1, Y1, Y1         // fx
	VXORPD Y2, Y2, Y2         // fy
	VXORPD Y3, Y3, Y3         // fz
	XORQ   BX, BX             // source byte offset

pfj:
	VMOVUPD      (R8)(BX*1), Y8
	VSUBPD       Y4, Y8, Y8    // dx = sx - xi
	VMOVUPD      (R9)(BX*1), Y9
	VSUBPD       Y5, Y9, Y9    // dy
	VMOVUPD      (R10)(BX*1), Y10
	VSUBPD       Y6, Y10, Y10  // dz
	VMULPD       Y8, Y8, Y11
	VFMADD231PD  Y9, Y9, Y11
	VFMADD231PD  Y10, Y10, Y11 // r2
	VXORPD       Y12, Y12, Y12
	VCMPPD       $4, Y12, Y11, Y12 // mask = r2 != 0 (NEQ_UQ)
	VSQRTPD      Y11, Y11      // r
	VDIVPD       Y11, Y15, Y11 // inv = 1/r
	VANDPD       Y12, Y11, Y11 // dead lanes: inv -> +0
	VMULPD       Y11, Y11, Y12 // inv*inv
	VMOVUPD      (R11)(BX*1), Y13
	VMULPD       Y11, Y13, Y13 // tj = sq*inv
	VADDPD       Y13, Y0, Y0   // p += tj
	VMULPD       Y12, Y13, Y13 // w = tj*(inv*inv)
	VFMADD231PD  Y8, Y13, Y1   // fx += w*dx
	VFMADD231PD  Y9, Y13, Y2
	VFMADD231PD  Y10, Y13, Y3
	VMULPD       Y7, Y11, Y14  // ti = qi*inv
	VMOVUPD      (R12)(BX*1), Y13
	VADDPD       Y14, Y13, Y13 // sphi += ti
	VMOVUPD      Y13, (R12)(BX*1)
	VMULPD       Y12, Y14, Y14 // v = ti*(inv*inv)
	VMOVUPD      (R13)(BX*1), Y13
	VFNMADD231PD Y8, Y14, Y13  // sgx -= v*dx
	VMOVUPD      Y13, (R13)(BX*1)
	VMOVUPD      (R14)(BX*1), Y13
	VFNMADD231PD Y9, Y14, Y13
	VMOVUPD      Y13, (R14)(BX*1)
	VMOVUPD      (R15)(BX*1), Y13
	VFNMADD231PD Y10, Y14, Y13
	VMOVUPD      Y13, (R15)(BX*1)
	ADDQ         $32, BX
	CMPQ         BX, CX
	JLT          pfj

	HSUM(Y0, X0, X13)
	MOVQ   phi+32(FP), DX
	VADDSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DX)(AX*8)
	HSUM(Y1, X1, X13)
	MOVQ   gx+40(FP), DX
	VADDSD (DX)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)
	HSUM(Y2, X2, X13)
	MOVQ   gy+48(FP), DX
	VADDSD (DX)(AX*8), X2, X2
	VMOVSD X2, (DX)(AX*8)
	HSUM(Y3, X3, X13)
	MOVQ   gz+56(FP), DX
	VADDSD (DX)(AX*8), X3, X3
	VMOVSD X3, (DX)(AX*8)
	INCQ   AX
	JMP    pfi

pfdone:
	VZEROUPPER
	RET
