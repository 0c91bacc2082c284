// AVX-512 near-field pair kernels: the two symmetric kernels every solver's
// near field runs on, eight sources wide, with 1/sqrt(r2) taken off the
// divider. Each group of eight sources seeds y with VRSQRT14PD (relative
// error < 2^-14) and refines it with two Newton steps in double,
//
//	h = r2/2;  twice: y = y + y*(1/2 - (h*y)*y)
//
// which lands within the error of VSQRTPD then VDIVPD (DESIGN.md §11). The
// product is ordered (h*y)*y so that no intermediate leaves the range of
// r2 and y: y*y overflows for r2 below ~1e-308.
//
// A lane is live when it holds a source (the tail mask) and r2 is neither
// ±0 nor +Inf (VFPCLASSPD). Dead lanes get inv = +0 by zero-masking the
// second Newton step, which is what the scalar body computes for +Inf
// (1/sqrt(+Inf) = 0) and what its `continue` contributes for 0; a NaN r2
// stays live, so poison propagates as it does in the scalar body.
//
// Sources run in groups of eight, lane l holding j = 8g + l counted from the
// call's first source. The last 1-7 sources are one more group under the
// tail mask (zero-masked loads, masked stores), so no load or store touches
// memory past the source count. The target's lanes collapse as
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)). Nothing is peeled to alignment:
// the order depends on the source index alone, never on an address.

#include "textflag.h"

DATA nfhalf<>+0(SB)/8, $0.5
GLOBL nfhalf<>(SB), RODATA|NOPTR, $8

// TAILMASK turns the source count N into the byte length of its whole
// groups of eight and sets K to the mask of the remaining N mod 8 sources
// (BZHI), clobbering T and AX.
#define TAILMASK(N, T, K) \
	MOVQ  N, T        \
	ANDQ  $7, T       \
	MOVL  $0xff, AX   \
	BZHIQ T, AX, AX   \
	KMOVB AX, K       \
	ANDQ  $-8, N      \
	SHLQ  $3, N

// A whole group loads and stores all eight lanes; the tail group zero-masks
// its loads and masks its stores with the tail mask K.
#define LOADW(m, K, z) VMOVUPD m, z
#define STOREW(z, K, m) VMOVUPD z, m
#define LOADT(m, K, z) VMOVUPD.Z m, K, z
#define STORET(z, K, m) VMOVUPD z, K, m

// LIVE sets KL to the lanes of R2 under KT that are neither ±0 nor +Inf.
#define LIVE(R2, KT, KL)          \
	VFPCLASSPDZ $0x0e, R2, KL \
	KANDNB      KT, KL, KL

// RSQRT2 sets Y to 1/sqrt(R2) in the lanes KL keeps and to +0 in the others:
// a VRSQRT14PD seed and two Newton steps y += y*(1/2 - (h*y)*y), h = R2/2,
// with Z15 holding 1/2. R2 is left holding h; T is clobbered.
#define RSQRT2(R2, Y, T, KL)      \
	VRSQRT14PD    R2, Y       \
	VMULPD        Z15, R2, R2 \
	VMULPD        Y, R2, T    \
	VFNMADD213PD  Z15, Y, T   \
	VFMADD231PD   T, Y, Y     \
	VMULPD        Y, R2, T    \
	VFNMADD213PD  Z15, Y, T   \
	VFMADD231PD.Z T, Y, KL, Y

// HSUM8 collapses the 8 lanes of Zv (low halves Yv, Xv) into lane 0 of Xv
// as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), clobbering Yt (low half Xt).
#define HSUM8(Zv, Yv, Xv, Yt, Xt) \
	VEXTRACTF64X4 $1, Zv, Yt  \
	VADDPD        Yt, Yv, Yv  \
	VEXTRACTF128  $1, Yv, Xt  \
	VADDPD        Xt, Xv, Xv  \
	VHADDPD       Xv, Xv, Xv

// POTGROUP is one group of PairwisePotentialSoA at source byte offset BX,
// K masking the lanes (LOADT/STORET) or not (LOADW/STOREW): d = target -
// source, then acc += sq*inv and sphi += qi*inv, both fused.
#define POTGROUP(LOAD, STORE, K)  \
	LOAD((R11)(BX*1), K, Z8)  \
	VSUBPD      Z8, Z4, Z8    \
	LOAD((R12)(BX*1), K, Z9)  \
	VSUBPD      Z9, Z5, Z9    \
	LOAD((R13)(BX*1), K, Z10) \
	VSUBPD      Z10, Z6, Z10  \
	VMULPD      Z8, Z8, Z11   \
	VFMADD231PD Z9, Z9, Z11   \
	VFMADD231PD Z10, Z10, Z11 \
	LIVE(Z11, K, K2)          \
	RSQRT2(Z11, Z12, Z13, K2) \
	LOAD((R14)(BX*1), K, Z13) \
	VFMADD231PD Z12, Z13, Z0  \
	LOAD((CX)(BX*1), K, Z13)  \
	VFMADD231PD Z7, Z12, Z13  \
	STORE(Z13, K, (CX)(BX*1))

// func pairPotSoAAVX512(xs, ys, zs, qs, phi *float64, cnt int, sx, sy, sz, sq, sphi *float64, scnt int)
// Symmetric traveling SoA potential: phi[i] += sum sq[j]*inv and
// sphi[j] += qs[i]*inv.
TEXT ·pairPotSoAAVX512(SB), NOSPLIT, $0-96
	MOVQ xs+0(FP), SI
	MOVQ ys+8(FP), DI
	MOVQ zs+16(FP), R8
	MOVQ qs+24(FP), R9
	MOVQ phi+32(FP), DX
	MOVQ cnt+40(FP), R10
	MOVQ sx+48(FP), R11
	MOVQ sy+56(FP), R12
	MOVQ sz+64(FP), R13
	MOVQ sq+72(FP), R14
	MOVQ sphi+80(FP), CX
	MOVQ scnt+88(FP), R15
	TAILMASK(R15, BX, K1)
	KXNORB       K3, K3, K3 // all eight lanes
	VBROADCASTSD nfhalf<>(SB), Z15
	XORQ         AX, AX     // i

ppi:
	CMPQ         AX, R10
	JGE          ppdone
	VBROADCASTSD (SI)(AX*8), Z4
	VBROADCASTSD (DI)(AX*8), Z5
	VBROADCASTSD (R8)(AX*8), Z6
	VBROADCASTSD (R9)(AX*8), Z7 // qi
	VXORPD       Z0, Z0, Z0     // acc
	XORQ         BX, BX         // source byte offset
	CMPQ         BX, R15
	JGE          pptail

ppj:
	POTGROUP(LOADW, STOREW, K3)
	ADDQ $64, BX
	CMPQ BX, R15
	JLT  ppj

pptail:
	KORTESTB K1, K1
	JZ       ppsum
	POTGROUP(LOADT, STORET, K1)

ppsum:
	HSUM8(Z0, Y0, X0, Y13, X13)
	VADDSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DX)(AX*8)
	INCQ   AX
	JMP    ppi

ppdone:
	VZEROUPPER
	RET

// SRCLOAD loads the group of sources at BX for PairwiseFusedSoA, K masking
// the lanes as in POTGROUP: positions and charges into Z24-Z27, their
// accumulators sphi, sgx, sgy, sgz into Z28-Z31. SRCSTORE writes the
// accumulators back.
#define SRCLOAD(LOAD, K)          \
	LOAD((R8)(BX*1), K, Z24)  \
	LOAD((R9)(BX*1), K, Z25)  \
	LOAD((R10)(BX*1), K, Z26) \
	LOAD((R11)(BX*1), K, Z27) \
	LOAD((R12)(BX*1), K, Z28) \
	LOAD((R13)(BX*1), K, Z29) \
	LOAD((R14)(BX*1), K, Z30) \
	LOAD((R15)(BX*1), K, Z31)

#define SRCSTORE(STORE, K)         \
	STORE(Z28, K, (R12)(BX*1)) \
	STORE(Z29, K, (R13)(BX*1)) \
	STORE(Z30, K, (R14)(BX*1)) \
	STORE(Z31, K, (R15)(BX*1))

// FUSEDT is one target's deposit on the loaded group, K masking the lanes:
// with the target broadcast in X, Y, Z, Q and d = source - target, the
// target sums P += tj and F += (tj*inv2)*d, the sources take sphi += ti and
// sg -= (ti*inv2)*d, with tj = sq*inv, ti = Q*inv, inv2 = inv*inv — the
// potential terms unfused, the field updates fused, as in the avx2 body.
#define FUSEDT(X, Y, Z, Q, P, FX, FY, FZ, K) \
	VSUBPD       X, Z24, Z8    \
	VSUBPD       Y, Z25, Z9    \
	VSUBPD       Z, Z26, Z10   \
	VMULPD       Z8, Z8, Z11   \
	VFMADD231PD  Z9, Z9, Z11   \
	VFMADD231PD  Z10, Z10, Z11 \
	LIVE(Z11, K, K2)           \
	RSQRT2(Z11, Z12, Z13, K2)  \
	VMULPD       Z12, Z12, Z11 \
	VMULPD       Z12, Z27, Z13 \
	VADDPD       Z13, P, P     \
	VMULPD       Z11, Z13, Z13 \
	VFMADD231PD  Z8, Z13, FX   \
	VFMADD231PD  Z9, Z13, FY   \
	VFMADD231PD  Z10, Z13, FZ  \
	VMULPD       Q, Z12, Z14   \
	VADDPD       Z14, Z28, Z28 \
	VMULPD       Z11, Z14, Z14 \
	VFNMADD231PD Z8, Z14, Z29  \
	VFNMADD231PD Z9, Z14, Z30  \
	VFNMADD231PD Z10, Z14, Z31

// TBCAST broadcasts element AX+OFF/8 of the target plane at PTR into R;
// TSUM collapses the sums Zv (HSUM8) and adds them to element AX+OFF/8 of
// the plane at PTR. Both clobber DX.
#define TBCAST(PTR, OFF, R) \
	MOVQ         PTR, DX \
	VBROADCASTSD OFF(DX)(AX*8), R

#define TSUM(Zv, Yv, Xv, PTR, OFF)   \
	HSUM8(Zv, Yv, Xv, Y13, X13)  \
	MOVQ   PTR, DX               \
	VADDSD OFF(DX)(AX*8), Xv, Xv \
	VMOVSD Xv, OFF(DX)(AX*8)

// func pairFusedSoAAVX512(xs, ys, zs, qs, phi, gx, gy, gz *float64, cnt int, sx, sy, sz, sq, sphi, sgx, sgy, sgz *float64, scnt int)
// Symmetric SoA potential + field from one inv = 1/sqrt(r2).
//
// Targets go two at a time, t in Z4-Z7 summing into Z0-Z3 and t+1 in
// Z20-Z23 summing into Z16-Z19, so each group of sources is loaded and its
// accumulators stored once per pair of targets. Each source still takes
// t's deposit before t+1's, and each target still sums lane l over the
// sources j ≡ l (mod 8), so the bits are the one-target order's. An odd
// last target runs alone. HSUM8 ends in VHADDPD, which is VEX-only and
// cannot read Z16 and up, so t+1's sums move to Z0-Z3 before the collapse.
TEXT ·pairFusedSoAAVX512(SB), NOSPLIT, $0-144
	MOVQ         cnt+64(FP), SI
	MOVQ         sx+72(FP), R8
	MOVQ         sy+80(FP), R9
	MOVQ         sz+88(FP), R10
	MOVQ         sq+96(FP), R11
	MOVQ         sphi+104(FP), R12
	MOVQ         sgx+112(FP), R13
	MOVQ         sgy+120(FP), R14
	MOVQ         sgz+128(FP), R15
	MOVQ         scnt+136(FP), CX
	TAILMASK(CX, BX, K1)
	KXNORB       K3, K3, K3
	VBROADCASTSD nfhalf<>(SB), Z15
	XORQ         AX, AX

pfi:
	MOVQ   SI, DX
	SUBQ   AX, DX
	CMPQ   DX, $1
	JLT    pfdone
	JEQ    pf1
	TBCAST(xs+0(FP), 0, Z4)
	TBCAST(ys+8(FP), 0, Z5)
	TBCAST(zs+16(FP), 0, Z6)
	TBCAST(qs+24(FP), 0, Z7)
	TBCAST(xs+0(FP), 8, Z20)
	TBCAST(ys+8(FP), 8, Z21)
	TBCAST(zs+16(FP), 8, Z22)
	TBCAST(qs+24(FP), 8, Z23)
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z16, Z16, Z16
	VXORPD Z17, Z17, Z17
	VXORPD Z18, Z18, Z18
	VXORPD Z19, Z19, Z19
	XORQ   BX, BX
	CMPQ   BX, CX
	JGE    pf2tail

pf2j:
	SRCLOAD(LOADW, K3)
	FUSEDT(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, K3)
	FUSEDT(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, K3)
	SRCSTORE(STOREW, K3)
	ADDQ $64, BX
	CMPQ BX, CX
	JLT  pf2j

pf2tail:
	KORTESTB K1, K1
	JZ       pf2sum
	SRCLOAD(LOADT, K1)
	FUSEDT(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, K1)
	FUSEDT(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, K1)
	SRCSTORE(STORET, K1)

pf2sum:
	TSUM(Z0, Y0, X0, phi+32(FP), 0)
	TSUM(Z1, Y1, X1, gx+40(FP), 0)
	TSUM(Z2, Y2, X2, gy+48(FP), 0)
	TSUM(Z3, Y3, X3, gz+56(FP), 0)
	VMOVAPD Z16, Z0
	VMOVAPD Z17, Z1
	VMOVAPD Z18, Z2
	VMOVAPD Z19, Z3
	TSUM(Z0, Y0, X0, phi+32(FP), 8)
	TSUM(Z1, Y1, X1, gx+40(FP), 8)
	TSUM(Z2, Y2, X2, gy+48(FP), 8)
	TSUM(Z3, Y3, X3, gz+56(FP), 8)
	ADDQ    $2, AX
	JMP     pfi

pf1:
	TBCAST(xs+0(FP), 0, Z4)
	TBCAST(ys+8(FP), 0, Z5)
	TBCAST(zs+16(FP), 0, Z6)
	TBCAST(qs+24(FP), 0, Z7)
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	XORQ   BX, BX
	CMPQ   BX, CX
	JGE    pf1tail

pf1j:
	SRCLOAD(LOADW, K3)
	FUSEDT(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, K3)
	SRCSTORE(STOREW, K3)
	ADDQ $64, BX
	CMPQ BX, CX
	JLT  pf1j

pf1tail:
	KORTESTB K1, K1
	JZ       pf1sum
	SRCLOAD(LOADT, K1)
	FUSEDT(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, K1)
	SRCSTORE(STORET, K1)

pf1sum:
	TSUM(Z0, Y0, X0, phi+32(FP), 0)
	TSUM(Z1, Y1, X1, gx+40(FP), 0)
	TSUM(Z2, Y2, X2, gy+48(FP), 0)
	TSUM(Z3, Y3, X3, gz+56(FP), 0)

pfdone:
	VZEROUPPER
	RET

// func rsqrt14(x float64) float64
// The host's own VRSQRT14PD of x: the seed the order pins transcribe.
TEXT ·rsqrt14(SB), NOSPLIT, $0-16
	VMOVSD     x+0(FP), X0
	VRSQRT14PD Z0, Z0
	VMOVSD     X0, ret+8(FP)
	VZEROUPPER
	RET
