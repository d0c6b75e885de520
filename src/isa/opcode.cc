#include "isa/opcode.h"

#include <array>
#include <unordered_map>

#include "common/log.h"

namespace pfm {

namespace {

// Mnemonics, in Opcode order (the traits live in opcode.h).
constexpr std::array<const char*, kOpTraits.size()> kNames = {{
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "sll", "srl",
    "sra", "slt", "sltu", "addi", "andi", "ori", "xori", "slli", "srli",
    "srai", "slti", "sltiu", "lui", "lb", "lbu", "lh", "lhu", "lw", "lwu",
    "ld", "sb", "sh", "sw", "sd", "beq", "bne", "blt", "bge", "bltu",
    "bgeu", "jal", "jalr", "fld", "fsd", "fadd", "fsub", "fmul", "fdiv",
    "nop", "halt",
}};

} // namespace

const char*
opName(Opcode op)
{
    pfm_assert(op < Opcode::kNumOpcodes, "bad opcode %d",
               static_cast<int>(op));
    return kNames[static_cast<size_t>(op)];
}

Opcode
opFromName(const std::string& name)
{
    static const std::unordered_map<std::string, Opcode> map = [] {
        std::unordered_map<std::string, Opcode> m;
        for (size_t i = 0; i < kNames.size(); ++i)
            m.emplace(kNames[i], static_cast<Opcode>(i));
        return m;
    }();
    auto it = map.find(name);
    return it == map.end() ? Opcode::kNumOpcodes : it->second;
}

} // namespace pfm
