#include "analysis/dump_format.hh"

#include <sstream>

#include "base/logging.hh"

namespace jtps::analysis
{

std::string
writeDump(const Snapshot &snap)
{
    std::ostringstream out;
    out << "jtpsdump 1\n";
    out << "# host physical memory attribution dump\n";
    out << "vms " << snap.vmCount << "\n";
    for (VmId v = 0; v < snap.overheadFrames.size(); ++v)
        out << "overhead " << v << " " << snap.overheadFrames[v] << "\n";

    for (std::size_t f = 0; f < snap.frameCount(); ++f) {
        const auto refs = snap.frameRefs(f);
        out << "frame " << snap.hfns[f] << " " << refs.size() << "\n";
        for (const FrameRef &r : refs) {
            out << "ref " << r.vm << " " << r.gfn << " " << r.pid << " "
                << (r.isJava ? 1 : 0) << " "
                << static_cast<unsigned>(r.category) << "\n";
        }
    }
    out << "end " << snap.totalResidentFrames << "\n";
    return out.str();
}

namespace
{

[[noreturn]] void
badDump(std::size_t line, const char *what)
{
    fatal("malformed dump at line %zu: %s", line, what);
}

} // namespace

Snapshot
parseDump(const std::string &text)
{
    Snapshot snap;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;

    bool got_header = false;
    bool got_end = false;
    std::size_t refs_expected = 0;

    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream tokens(line);
        std::string keyword;
        tokens >> keyword;

        if (!got_header) {
            int version = 0;
            if (keyword != "jtpsdump" || !(tokens >> version))
                badDump(line_no, "missing jtpsdump header");
            if (version != 1)
                badDump(line_no, "unsupported version");
            got_header = true;
            continue;
        }

        if (keyword == "vms") {
            if (!(tokens >> snap.vmCount))
                badDump(line_no, "bad vms line");
        } else if (keyword == "overhead") {
            VmId vm = 0;
            std::uint64_t frames = 0;
            if (!(tokens >> vm >> frames))
                badDump(line_no, "bad overhead line");
            if (snap.overheadFrames.size() <= vm)
                snap.overheadFrames.resize(vm + 1, 0);
            snap.overheadFrames[vm] = frames;
        } else if (keyword == "frame") {
            if (refs_expected != 0)
                badDump(line_no, "previous frame incomplete");
            Hfn hfn = 0;
            std::size_t nrefs = 0;
            if (!(tokens >> hfn >> nrefs) || nrefs == 0)
                badDump(line_no, "bad frame line");
            if (!snap.hfns.empty() && hfn <= snap.hfns.back())
                badDump(line_no, "frames not in ascending hfn order");
            refs_expected = nrefs;
            snap.hfns.push_back(hfn);
            snap.offsets.push_back(snap.refs.size() + nrefs);
        } else if (keyword == "ref") {
            if (refs_expected == 0)
                badDump(line_no, "ref outside frame");
            FrameRef ref;
            unsigned is_java = 0, category = 0;
            if (!(tokens >> ref.vm >> ref.gfn >> ref.pid >> is_java >>
                  category) ||
                category >= guest::numMemCategories) {
                badDump(line_no, "bad ref line");
            }
            ref.isJava = is_java != 0;
            ref.category = static_cast<guest::MemCategory>(category);
            snap.refs.push_back(ref);
            --refs_expected;
        } else if (keyword == "end") {
            if (refs_expected != 0)
                badDump(line_no, "last frame incomplete");
            if (!(tokens >> snap.totalResidentFrames))
                badDump(line_no, "bad end line");
            got_end = true;
        } else {
            badDump(line_no, "unknown keyword");
        }
    }

    if (!got_header)
        badDump(line_no, "empty dump");
    if (!got_end)
        badDump(line_no, "missing end marker");
    return snap;
}

} // namespace jtps::analysis
