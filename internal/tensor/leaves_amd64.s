#include "textflag.h"

// SSE2 bodies of the elementwise leaves (see leaves.go). Every loop takes
// eight elements a pass, then four, then one at a time. A product is
// rounded by MULPS/MULSS before ADDPS/ADDSS adds it, as the Go bodies
// round it; no routine uses a fused multiply-add.

// func axpyLeaf(y []float32, a float32, x []float32)
TEXT ·axpyLeaf(SB), NOSPLIT, $0-56
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVSS  a+24(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+32(FP), SI

loop8:
	CMPQ   CX, $8
	JB     four
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    loop8

four:
	CMPQ   CX, $4
	JB     one
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX

one:
	TESTQ CX, CX
	JE    done
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X3
	ADDSS X3, X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   one

done:
	RET

// func axpy2Leaf(y []float32, a0 float32, x0 []float32, a1 float32, x1 []float32)
TEXT ·axpy2Leaf(SB), NOSPLIT, $0-88
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVSS  a0+24(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x0_base+32(FP), SI
	MOVSS  a1+56(FP), X1
	SHUFPS $0x00, X1, X1
	MOVQ   x1_base+64(FP), DX

loop8:
	CMPQ   CX, $8
	JB     four
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	MULPS  X0, X2
	MULPS  X0, X3
	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	ADDPS  X4, X2
	ADDPS  X5, X3
	MOVUPS (DX), X6
	MOVUPS 16(DX), X7
	MULPS  X1, X6
	MULPS  X1, X7
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    loop8

four:
	CMPQ   CX, $4
	JB     one
	MOVUPS (SI), X2
	MULPS  X0, X2
	MOVUPS (DI), X4
	ADDPS  X4, X2
	MOVUPS (DX), X6
	MULPS  X1, X6
	ADDPS  X6, X2
	MOVUPS X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	SUBQ   $4, CX

one:
	TESTQ CX, CX
	JE    done
	MOVSS (SI), X2
	MULSS X0, X2
	MOVSS (DI), X4
	ADDSS X4, X2
	MOVSS (DX), X6
	MULSS X1, X6
	ADDSS X6, X2
	MOVSS X2, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DX
	ADDQ  $4, DI
	DECQ  CX
	JMP   one

done:
	RET

// func scaleLeaf(y []float32, a float32, x []float32)
TEXT ·scaleLeaf(SB), NOSPLIT, $0-56
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVSS  a+24(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+32(FP), SI

loop8:
	CMPQ   CX, $8
	JB     four
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    loop8

four:
	CMPQ   CX, $4
	JB     one
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX

one:
	TESTQ CX, CX
	JE    done
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   one

done:
	RET

// func axpyAddLeaf(y []float32, r []float32, a float32, x []float32)
TEXT ·axpyAddLeaf(SB), NOSPLIT, $0-80
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVQ   r_base+24(FP), DX
	MOVSS  a+48(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+56(FP), SI

loop8:
	CMPQ   CX, $8
	JB     four
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DX), X3
	MOVUPS 16(DX), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	ADDPS  X5, X1
	ADDPS  X6, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    loop8

four:
	CMPQ   CX, $4
	JB     one
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DX), X3
	ADDPS  X3, X1
	MOVUPS (DI), X5
	ADDPS  X5, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	SUBQ   $4, CX

one:
	TESTQ CX, CX
	JE    done
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DX), X3
	ADDSS X3, X1
	MOVSS (DI), X5
	ADDSS X5, X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DX
	ADDQ  $4, DI
	DECQ  CX
	JMP   one

done:
	RET

// func mulAccTLeaf(acc []float32, col []float32, dT []float32, rows int, m int, n int)
// Four rows of acc by four columns at a time: X0–X3 hold the block, and
// each p adds the four products col[r][p]·dT[p][j:j+4].
TEXT ·mulAccTLeaf(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ col_base+24(FP), SI
	MOVQ dT_base+48(FP), DX
	MOVQ rows+72(FP), R8
	MOVQ m+80(FP), R9
	MOVQ n+88(FP), R12
	SHLQ $2, R12          // row stride of acc and dT, in bytes
	MOVQ R9, R11
	SHLQ $2, R11          // row stride of col, in bytes
	LEAQ (R11)(R11*2), R10 // three col rows, in bytes

rowblock:
	CMPQ R8, $4
	JB   done
	XORQ R13, R13         // column offset j, in bytes

chunk:
	CMPQ   R13, R12
	JAE    nextrows
	LEAQ   (DI)(R13*1), AX
	LEAQ   (AX)(R12*2), BX
	MOVUPS (AX), X0
	MOVUPS (AX)(R12*1), X1
	MOVUPS (BX), X2
	MOVUPS (BX)(R12*1), X3
	MOVQ   SI, AX
	LEAQ   (DX)(R13*1), BX
	MOVQ   R9, CX
	TESTQ  CX, CX
	JE     store

ploop:
	MOVUPS (BX), X4
	MOVSS  (AX), X5
	SHUFPS $0x00, X5, X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVSS  (AX)(R11*1), X6
	SHUFPS $0x00, X6, X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVSS  (AX)(R11*2), X7
	SHUFPS $0x00, X7, X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVSS  (AX)(R10*1), X8
	SHUFPS $0x00, X8, X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $4, AX
	ADDQ   R12, BX
	DECQ   CX
	JNE    ploop

store:
	LEAQ   (DI)(R13*1), AX
	LEAQ   (AX)(R12*2), BX
	MOVUPS X0, (AX)
	MOVUPS X1, (AX)(R12*1)
	MOVUPS X2, (BX)
	MOVUPS X3, (BX)(R12*1)
	ADDQ   $16, R13
	JMP    chunk

nextrows:
	LEAQ (DI)(R12*4), DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R8
	JMP  rowblock

done:
	RET
