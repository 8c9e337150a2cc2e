#include "arch/xlate.hh"

#include "base/logging.hh"
#include "isa/decode.hh"

namespace dvi
{
namespace arch
{

using isa::Instruction;
using isa::Opcode;

namespace
{

/** Fold one opcode into a block's static stats delta, mirroring the
 * per-step increments in Emulator::step() exactly. */
void
accumulate(BlockStats &s, Opcode op)
{
    ++s.insts;
    if (op == Opcode::Kill)
        ++s.kills;
    else
        ++s.progInsts;

    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Slt:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slti:
      case Opcode::Lui:
        ++s.aluOps;
        break;
      case Opcode::Load:
        ++s.memRefs;
        ++s.loads;
        break;
      case Opcode::Store:
        ++s.memRefs;
        ++s.stores;
        break;
      case Opcode::LiveLoad:
        ++s.memRefs;
        ++s.loads;
        ++s.restores;
        break;
      case Opcode::LiveStore:
        ++s.memRefs;
        ++s.stores;
        ++s.saves;
        break;
      case Opcode::Fadd:
      case Opcode::Fmul:
        ++s.fpOps;
        break;
      case Opcode::Fload:
        ++s.memRefs;
        ++s.loads;
        ++s.fpOps;
        break;
      case Opcode::Fstore:
        ++s.memRefs;
        ++s.stores;
        ++s.fpOps;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        ++s.condBranches;
        break;
      case Opcode::Call:
        ++s.calls;
        break;
      case Opcode::Ret:
        ++s.returns;
        break;
      case Opcode::LvmSave:
        ++s.memRefs;
        ++s.stores;
        break;
      case Opcode::LvmLoad:
        ++s.memRefs;
        ++s.loads;
        break;
      default:
        // Nop, Halt, Jump, Kill: mix counters untouched.
        break;
    }
}

} // namespace

XBlock
translateBlock(const std::vector<Instruction> &code, std::uint32_t pc)
{
    panic_if(pc >= code.size(),
             "translateBlock: pc ", pc, " outside code image");
    XBlock b;
    b.entryPc = pc;
    b.uops.reserve(8);
    for (std::uint32_t i = pc;
         i < code.size() && b.len < maxBlockLen; ++i) {
        const Instruction &inst = code[i];
        MicroOp u;
        u.op = inst.op;
        u.rd = inst.rd;
        u.rs1 = inst.rs1;
        u.rs2 = inst.rs2;
        u.imm = inst.imm;
        u.pc = i;
        RegIndex chk[2];
        const unsigned n_chk = isa::deadCheckRegs(inst, chk);
        for (unsigned c = 0; c < n_chk; ++c)
            u.chkMask |= std::uint32_t(1) << chk[c];
        b.uops.push_back(u);
        ++b.len;
        accumulate(b.stat, inst.op);
        if (isa::endsBlock(inst))
            break;
    }
    return b;
}

BlockStats
blockPrefixStats(const XBlock &b, std::uint32_t n)
{
    panic_if(n > b.len, "blockPrefixStats: prefix ", n,
             " longer than block (", b.len, ")");
    BlockStats s;
    for (std::uint32_t i = 0; i < n; ++i)
        accumulate(s, b.uops[i].op);
    return s;
}

} // namespace arch
} // namespace dvi
