/**
 * @file
 * Phi elimination: "The translator eliminates the phi-nodes by
 * introducing copy operations into predecessor basic blocks. These
 * copies are usually eliminated during register allocation." (paper
 * Section 3.1.)
 *
 * The conservative two-copy scheme is used: each phi gets a fresh
 * temporary written at the end of every predecessor and read once at
 * the phi's position. Fresh temporaries make the parallel-copy
 * semantics of simultaneous phis trivially correct (no lost-copy or
 * swap problems); the register allocator's coalescing removes most of
 * them, which ablation A5 measures.
 */

#include "codegen/codegen.h"

namespace llva {

void
eliminatePhis(MachineFunction &mf, CodeGenStats *stats)
{
    for (auto &mbb : mf.blocks()) {
        auto &instrs = mbb->instrs();
        size_t phi_count = 0;
        for (auto &mi : instrs) {
            if (mi->opcode != kOpPhi)
                break;
            ++phi_count;
        }
        if (phi_count == 0)
            continue;

        for (size_t p = 0; p < phi_count; ++p) {
            MachineInstr *phi = instrs[p].get();
            unsigned dest = phi->ops[0].reg;
            // A copy, not a reference: createVReg may grow the table.
            const VRegInfo info = mf.vregInfo(dest);
            unsigned tmp = mf.createVReg(info.regClass, info.fp32);

            // Insert tmp <- incoming before each predecessor's
            // terminator.
            for (size_t i = 1; i + 1 < phi->ops.size(); i += 2) {
                MOperand val = phi->ops[i];
                MachineBasicBlock *pred = phi->ops[i + 1].block;

                // The terminator group is every trailing instruction
                // with a Block operand (conditional chains emit
                // several); copies go before the first of them.
                auto &pinstrs = pred->instrs();
                size_t insert_at = pinstrs.size();
                while (insert_at > 0) {
                    const MachineInstr &cand = *pinstrs[insert_at - 1];
                    bool is_term = false;
                    for (const MOperand &op : cand.ops)
                        if (op.kind == MOperand::Block)
                            is_term = true;
                    if (!is_term)
                        break;
                    --insert_at;
                }
                auto copy = std::make_unique<MachineInstr>(
                    kOpCopy,
                    std::vector<MOperand>{MOperand::makeReg(tmp), val},
                    1);
                copy->fp32 = info.fp32;
                pinstrs.insert(pinstrs.begin() +
                                   static_cast<ptrdiff_t>(insert_at),
                               std::move(copy));
                if (stats)
                    ++stats->phiCopiesInserted;
            }

            // Replace the phi with dest <- tmp at its position.
            auto copy = std::make_unique<MachineInstr>(
                kOpCopy,
                std::vector<MOperand>{MOperand::makeReg(dest),
                                      MOperand::makeReg(tmp)},
                1);
            copy->fp32 = info.fp32;
            instrs[p] = std::move(copy);
            if (stats)
                ++stats->phiCopiesInserted;
        }
    }
}

} // namespace llva
