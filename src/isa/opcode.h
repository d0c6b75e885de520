/**
 * @file
 * The simulator's RISC-V-flavoured micro-op set. Workload ROIs are
 * hand-compiled to this ISA; the functional engine interprets it and the
 * timing core models it.
 */

#ifndef PFM_ISA_OPCODE_H
#define PFM_ISA_OPCODE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/log.h"

namespace pfm {

enum class Opcode : std::uint8_t {
    // ALU register-register
    kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor,
    kSll, kSrl, kSra, kSlt, kSltu,
    // ALU register-immediate
    kAddi, kAndi, kOri, kXori, kSlli, kSrli, kSrai, kSlti, kSltiu, kLui,
    // Loads (rd <- mem[rs1 + imm])
    kLb, kLbu, kLh, kLhu, kLw, kLwu, kLd,
    // Stores (mem[rs1 + imm] <- rs2)
    kSb, kSh, kSw, kSd,
    // Conditional branches (compare rs1, rs2; target = label)
    kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
    // Unconditional control
    kJal, kJalr,
    // Floating point (operates on the f-register bank, bit-cast doubles)
    kFld, kFsd, kFadd, kFsub, kFmul, kFdiv,
    // Misc
    kNop, kHalt,
    kNumOpcodes,
};

/** Coarse functional class used for lane steering and latency. */
enum class OpClass : std::uint8_t {
    kIntAlu,    ///< single-cycle integer op
    kIntMul,    ///< pipelined multiplier
    kIntDiv,    ///< unpipelined divider
    kLoad,
    kStore,
    kBranch,    ///< conditional branch
    kJump,      ///< unconditional jump / call / return
    kFpAdd,
    kFpMul,
    kFpDiv,
    kNop,
};

/** Static properties of an opcode. */
struct OpTraits {
    OpClass cls;
    bool is_load;
    bool is_store;
    bool is_cond_branch;
    bool is_uncond;
    bool writes_rd;
    bool reads_rs1;
    bool reads_rs2;
    bool is_fp;         ///< rd/rs operands name the f-register bank
    std::uint8_t mem_bytes;  ///< access size for loads/stores, else 0
    bool mem_signed;    ///< sign-extend loaded value
};

/**
 * Traits of every opcode, indexed by Opcode. Defined here, not in
 * opcode.cc, so the per-instruction isLoad()/isStore()/traits() queries
 * of the core and the engine inline to one indexed load. Field order:
 * cls, load, store, cond_br, uncond, writes_rd, reads_rs1, reads_rs2,
 * is_fp, mem_bytes, mem_signed.
 */
inline constexpr std::array<OpTraits,
                            static_cast<std::size_t>(Opcode::kNumOpcodes)>
    kOpTraits = {{
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // add
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // sub
    {OpClass::kIntMul, 0,0,0,0, 1,1,1, 0, 0,0}, // mul
    {OpClass::kIntDiv, 0,0,0,0, 1,1,1, 0, 0,0}, // div
    {OpClass::kIntDiv, 0,0,0,0, 1,1,1, 0, 0,0}, // rem
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // and
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // or
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // xor
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // sll
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // srl
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // sra
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // slt
    {OpClass::kIntAlu, 0,0,0,0, 1,1,1, 0, 0,0}, // sltu
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // addi
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // andi
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // ori
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // xori
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // slli
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // srli
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // srai
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // slti
    {OpClass::kIntAlu, 0,0,0,0, 1,1,0, 0, 0,0}, // sltiu
    {OpClass::kIntAlu, 0,0,0,0, 1,0,0, 0, 0,0}, // lui
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 1,1}, // lb
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 1,0}, // lbu
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 2,1}, // lh
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 2,0}, // lhu
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 4,1}, // lw
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 4,0}, // lwu
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 0, 8,0}, // ld
    {OpClass::kStore,  0,1,0,0, 0,1,1, 0, 1,0}, // sb
    {OpClass::kStore,  0,1,0,0, 0,1,1, 0, 2,0}, // sh
    {OpClass::kStore,  0,1,0,0, 0,1,1, 0, 4,0}, // sw
    {OpClass::kStore,  0,1,0,0, 0,1,1, 0, 8,0}, // sd
    {OpClass::kBranch, 0,0,1,0, 0,1,1, 0, 0,0}, // beq
    {OpClass::kBranch, 0,0,1,0, 0,1,1, 0, 0,0}, // bne
    {OpClass::kBranch, 0,0,1,0, 0,1,1, 0, 0,0}, // blt
    {OpClass::kBranch, 0,0,1,0, 0,1,1, 0, 0,0}, // bge
    {OpClass::kBranch, 0,0,1,0, 0,1,1, 0, 0,0}, // bltu
    {OpClass::kBranch, 0,0,1,0, 0,1,1, 0, 0,0}, // bgeu
    {OpClass::kJump,   0,0,0,1, 1,0,0, 0, 0,0}, // jal
    {OpClass::kJump,   0,0,0,1, 1,1,0, 0, 0,0}, // jalr
    {OpClass::kLoad,   1,0,0,0, 1,1,0, 1, 8,0}, // fld
    {OpClass::kStore,  0,1,0,0, 0,1,1, 1, 8,0}, // fsd
    {OpClass::kFpAdd,  0,0,0,0, 1,1,1, 1, 0,0}, // fadd
    {OpClass::kFpAdd,  0,0,0,0, 1,1,1, 1, 0,0}, // fsub
    {OpClass::kFpMul,  0,0,0,0, 1,1,1, 1, 0,0}, // fmul
    {OpClass::kFpDiv,  0,0,0,0, 1,1,1, 1, 0,0}, // fdiv
    {OpClass::kNop,    0,0,0,0, 0,0,0, 0, 0,0}, // nop
    {OpClass::kNop,    0,0,0,0, 0,0,0, 0, 0,0}, // halt
}};

/** Table lookup of traits for @p op. */
inline const OpTraits&
opTraits(Opcode op)
{
    pfm_assert(op < Opcode::kNumOpcodes, "bad opcode %d",
               static_cast<int>(op));
    return kOpTraits[static_cast<std::size_t>(op)];
}

/** Mnemonic for @p op ("add", "ld", ...). */
const char* opName(Opcode op);

/** Parse a mnemonic; returns kNumOpcodes if unknown. */
Opcode opFromName(const std::string& name);

} // namespace pfm

#endif // PFM_ISA_OPCODE_H
