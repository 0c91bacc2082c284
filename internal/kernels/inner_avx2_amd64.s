// AVX2/FMA inner-series kernels (inner.go): particles in lanes, four to a
// group, and in each lane exactly the scalar body's arithmetic in its order
// — r2 and t as two fused steps on a product, every recurrence step
// u*q1 - (c2*rho2)*q0 as a multiply then a fused multiply-subtract, the
// series sums fused. Lanes never share a sum, so there is no horizontal
// reduction and every particle gets the scalar body's bits.
//
// Every group loads and stores under a lane mask (VMASKMOVPD): all four
// lanes for a whole group, the first cnt mod 4 for the last, so no access
// touches memory past the particle count. A dead lane computes on x = 0 and
// is never stored.

#include "textflag.h"

DATA innermask<>+0(SB)/8, $-1
DATA innermask<>+8(SB)/8, $-1
DATA innermask<>+16(SB)/8, $-1
DATA innermask<>+24(SB)/8, $-1
DATA innermask<>+32(SB)/8, $0
DATA innermask<>+40(SB)/8, $0
DATA innermask<>+48(SB)/8, $0
DATA innermask<>+56(SB)/8, $0
GLOBL innermask<>(SB), RODATA|NOPTR, $64

DATA innerone<>+0(SB)/8, $1.0
GLOBL innerone<>(SB), RODATA|NOPTR, $8

DATA innerthree<>+0(SB)/8, $3.0
GLOBL innerthree<>(SB), RODATA|NOPTR, $8

// LANEMASK sets Ym to the lanes of the group at particle AX that hold one
// of the R10 particles, clobbering BX and CX.
#define LANEMASK(Ym) \
	MOVQ    R10, CX                \
	SUBQ    AX, CX                 \
	MOVQ    $4, BX                 \
	CMPQ    CX, BX                 \
	CMOVQGT BX, CX                 \
	NEGQ    CX                     \
	LEAQ    innermask<>+32(SB), BX \
	VMOVUPD (BX)(CX*8), Ym

// SCALED sets Yd to the group's (x - c)*ia for the coordinate plane at P,
// loading under mask Ym; C is the centre's coordinate; Yt is clobbered.
#define SCALED(P, C, Ym, Yd, Yt) \
	VMASKMOVPD   (P)(AX*8), Ym, Yd \
	VBROADCASTSD C, Yt             \
	VSUBPD       Yt, Yd, Yd        \
	VBROADCASTSD ia+72(FP), Yt     \
	VMULPD       Yt, Yd, Yd

// DOT sets Yt to t = fma(s.Z, ez, fma(s.Y, ey, s.X*ex)) for the rule point
// at R11; EX, EY, EZ may be memory; Ys is clobbered.
#define DOT(EX, EY, EZ, Yt, Ys) \
	VBROADCASTSD 0(R11), Yt  \
	VMULPD       EX, Yt, Yt  \
	VBROADCASTSD 8(R11), Ys  \
	VFMADD231PD  EY, Ys, Yt  \
	VBROADCASTSD 16(R11), Ys \
	VFMADD231PD  EZ, Ys, Yt

// SETUP loads the arguments both kernels share: the rule (R11 points, R12
// weights, R13 values, R14 count), the recurrence steps from step 1 (R15)
// to their end (DX), and the particle planes (SI, DI, R8) and count (R10).
#define SETUP \
	MOVQ w+8(FP), R12      \
	MOVQ vals+16(FP), R13     \
	MOVQ k+24(FP), R14     \
	MOVQ cf+32(FP), R15    \
	MOVQ steps+40(FP), DX  \
	SHLQ $5, DX            \
	ADDQ R15, DX           \
	ADDQ $32, R15          \
	MOVQ xs+80(FP), SI     \
	MOVQ ys+88(FP), DI     \
	MOVQ zs+96(FP), R8

// func innerPotAVX2(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi *float64, cnt int)
// Registers: Y0-Y2 e, Y3 rho2, Y4 the potential, Y5 t, Y6 w*g, Y7 the
// series sum, Y8/Y9 Q_(n-1)/Q_n, Y10/Y11 scratch, Y13 3, Y14 1, Y15 mask.
TEXT ·innerPotAVX2(SB), NOSPLIT, $0-120
	SETUP
	MOVQ         phi+104(FP), R9
	MOVQ         cnt+112(FP), R10
	VBROADCASTSD innerone<>(SB), Y14
	VBROADCASTSD innerthree<>(SB), Y13
	XORQ         AX, AX             // first particle of the group

ipgroup:
	CMPQ        AX, R10
	JGE         ipdone
	LANEMASK(Y15)
	SCALED(SI, cx+48(FP), Y15, Y0, Y5)
	SCALED(DI, cy+56(FP), Y15, Y1, Y5)
	SCALED(R8, cz+64(FP), Y15, Y2, Y5)
	VMULPD      Y0, Y0, Y3
	VFMADD231PD Y1, Y1, Y3
	VFMADD231PD Y2, Y2, Y3          // rho2
	VXORPD      Y4, Y4, Y4          // v
	MOVQ        pts+0(FP), R11
	XORQ        BX, BX              // point i

ippoint:
	CMPQ        BX, R14
	JGE         ipstore
	DOT(Y0, Y1, Y2, Y5, Y10)
	VMOVAPD     Y14, Y8             // q0 = 1
	VMOVAPD     Y5, Y9              // q1 = t
	VMOVAPD     Y14, Y7
	VFMADD231PD Y13, Y5, Y7         // sq = 3t + 1
	MOVQ        R15, CX

ipstep:
	CMPQ         CX, DX
	JGE          ipsum
	VBROADCASTSD 0(CX), Y10
	VMULPD       Y5, Y10, Y10       // u = c1*t
	VBROADCASTSD 8(CX), Y11
	VMULPD       Y3, Y11, Y11       // c2*rho2
	VMULPD       Y8, Y11, Y11       // (c2*rho2)*q0
	VFMSUB231PD  Y9, Y10, Y11       // Q_(n+1) = u*q1 - (c2*rho2)*q0
	VMOVAPD      Y9, Y8
	VMOVAPD      Y11, Y9
	VBROADCASTSD 24(CX), Y10
	VFMADD231PD  Y9, Y10, Y7        // sq += k*Q_(n+1)
	ADDQ         $32, CX
	JMP          ipstep

ipsum:
	VMOVSD       (R12)(BX*8), X6
	VMULSD       (R13)(BX*8), X6, X6
	VBROADCASTSD X6, Y6             // w*g
	VFMADD231PD  Y7, Y6, Y4         // v += w*g*sq
	ADDQ         $24, R11
	INCQ         BX
	JMP          ippoint

ipstore:
	VMASKMOVPD Y4, Y15, (R9)(AX*8)
	ADDQ       $4, AX
	JMP        ipgroup

ipdone:
	VZEROUPPER
	RET

// GRAD writes the group's gradient component from its sum F at SP offset
// off: fma(fb, e, F)*ia, with fb in Y1, ia in Y2 and the mask in Y15, to the
// plane whose pointer is the argument at P; CX and Y3 are clobbered.
#define GRAD(off, e, P) \
	VMOVUPD     off(SP), Y3        \
	VFMADD231PD e(SP), Y1, Y3      \
	VMULPD      Y2, Y3, Y3         \
	MOVQ        P, CX              \
	VMASKMOVPD  Y3, Y15, (CX)(AX*8)

// FIELD adds wa*s_c to the field sum at SP offset off, s_c at R11+soff; wa
// is in Y8, Y10 and Y11 are clobbered.
#define FIELD(soff, off) \
	VBROADCASTSD soff(R11), Y10 \
	VMOVUPD      off(SP), Y11   \
	VFMADD231PD  Y10, Y8, Y11   \
	VMOVUPD      Y11, off(SP)

// func innerFusedAVX2(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi, gx, gy, gz *float64, cnt int)
// The recurrence and its two derivatives need all sixteen registers — Y0 t,
// Y1/Y2 Q_(n-1)/Q_n, Y3/Y4 alpha, Y5/Y6 beta, Y7-Y9 their series sums,
// Y10-Y15 scratch — so the group's state lives in the frame: e at 0, 32 and
// 64, rho2 at 96, the sums of the potential, the three s_i terms and the e
// term at 128-256, the lane mask at 288.
TEXT ·innerFusedAVX2(SB), NOSPLIT, $320-144
	SETUP
	MOVQ cnt+136(FP), R10
	XORQ AX, AX

ifgroup:
	CMPQ        AX, R10
	JGE         ifdone
	LANEMASK(Y15)
	VMOVUPD     Y15, 288(SP)
	SCALED(SI, cx+48(FP), Y15, Y0, Y5)
	SCALED(DI, cy+56(FP), Y15, Y1, Y5)
	SCALED(R8, cz+64(FP), Y15, Y2, Y5)
	VMOVUPD     Y0, 0(SP)
	VMOVUPD     Y1, 32(SP)
	VMOVUPD     Y2, 64(SP)
	VMULPD      Y0, Y0, Y3
	VFMADD231PD Y1, Y1, Y3
	VFMADD231PD Y2, Y2, Y3
	VMOVUPD     Y3, 96(SP)          // rho2
	VXORPD      Y4, Y4, Y4
	VMOVUPD     Y4, 128(SP)         // v
	VMOVUPD     Y4, 160(SP)         // fx
	VMOVUPD     Y4, 192(SP)         // fy
	VMOVUPD     Y4, 224(SP)         // fz
	VMOVUPD     Y4, 256(SP)         // fb
	MOVQ        pts+0(FP), R11
	XORQ        BX, BX

ifpoint:
	CMPQ         BX, R14
	JGE          ifstore
	DOT(0(SP), 32(SP), 64(SP), Y0, Y10)
	VBROADCASTSD innerone<>(SB), Y1 // q0 = 1
	VMOVAPD      Y0, Y2             // q1 = t
	VXORPD       Y3, Y3, Y3         // a0 = 0
	VMOVAPD      Y1, Y4             // a1 = 1
	VXORPD       Y5, Y5, Y5         // b0 = 0
	VXORPD       Y6, Y6, Y6         // b1 = 0
	VBROADCASTSD innerthree<>(SB), Y8 // sa = 3
	VMOVAPD      Y1, Y7
	VFMADD231PD  Y8, Y0, Y7         // sq = 3t + 1
	VXORPD       Y9, Y9, Y9         // sb = 0
	MOVQ         R15, CX

ifstep:
	CMPQ         CX, DX
	JGE          ifsum
	VBROADCASTSD 0(CX), Y10
	VMULPD       Y0, Y10, Y10       // u = c1*t
	VBROADCASTSD 8(CX), Y11
	VMULPD       96(SP), Y11, Y11   // r = c2*rho2
	VMULPD       Y1, Y11, Y12
	VFMSUB231PD  Y2, Y10, Y12       // Q_(n+1) = u*q1 - r*q0
	VMULPD       Y3, Y11, Y13
	VFMSUB231PD  Y4, Y10, Y13       // u*a1 - r*a0
	VBROADCASTSD 0(CX), Y15
	VFMADD231PD  Y2, Y15, Y13       // alpha_(n+1) = c1*q1 + (u*a1 - r*a0)
	VMULPD       Y5, Y11, Y14
	VBROADCASTSD 16(CX), Y15
	VFMADD231PD  Y1, Y15, Y14       // d*q0 + r*b0
	VFMSUB231PD  Y6, Y10, Y14       // beta_(n+1) = u*b1 - (d*q0 + r*b0)
	VMOVAPD      Y2, Y1
	VMOVAPD      Y12, Y2
	VMOVAPD      Y4, Y3
	VMOVAPD      Y13, Y4
	VMOVAPD      Y6, Y5
	VMOVAPD      Y14, Y6
	VBROADCASTSD 24(CX), Y15
	VFMADD231PD  Y2, Y15, Y7        // sq += k*Q_(n+1)
	VFMADD231PD  Y4, Y15, Y8        // sa += k*alpha_(n+1)
	VFMADD231PD  Y6, Y15, Y9        // sb += k*beta_(n+1)
	ADDQ         $32, CX
	JMP          ifstep

ifsum:
	VMOVSD       (R12)(BX*8), X15
	VMULSD       (R13)(BX*8), X15, X15
	VBROADCASTSD X15, Y15           // wg = w*g
	VMOVUPD      128(SP), Y10
	VFMADD231PD  Y7, Y15, Y10
	VMOVUPD      Y10, 128(SP)       // v += wg*sq
	VMULPD       Y8, Y15, Y8        // wa = wg*sa
	FIELD(0, 160)
	FIELD(8, 192)
	FIELD(16, 224)
	VMOVUPD      256(SP), Y10
	VFMADD231PD  Y9, Y15, Y10
	VMOVUPD      Y10, 256(SP)       // fb += wg*sb
	ADDQ         $24, R11
	INCQ         BX
	JMP          ifpoint

ifstore:
	VMOVUPD      288(SP), Y15
	VMOVUPD      128(SP), Y0
	MOVQ         phi+104(FP), CX
	VMASKMOVPD   Y0, Y15, (CX)(AX*8)
	VMOVUPD      256(SP), Y1
	VBROADCASTSD ia+72(FP), Y2
	GRAD(160, 0, gx+112(FP))
	GRAD(192, 32, gy+120(FP))
	GRAD(224, 64, gz+128(FP))
	ADDQ         $4, AX
	JMP          ifgroup

ifdone:
	VZEROUPPER
	RET
