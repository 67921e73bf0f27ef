#include "sim/config.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "sim/knob.hh"
#include "sim/log.hh"

namespace nifdy
{

namespace
{

/** Edit distance between @p a and @p b (did-you-mean ranking). */
std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j)
            diag = std::exchange(
                row[j], std::min({row[j] + 1, row[j - 1] + 1,
                                  diag + (a[i - 1] != b[j - 1])}));
    }
    return row[b.size()];
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = Entry{value};
}

void
Config::set(const std::string &key, long value)
{
    set(key, std::to_string(value));
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    set(key, os.str());
}

void
Config::set(const std::string &key, bool value)
{
    set(key, std::string(value ? "true" : "false"));
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

const std::string *
Config::find(std::string_view key) const
{
    if (asked_.empty())
        asked_.reserve(askedReserve);
    asked_.append(key);
    asked_.push_back('\n');
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    it->second.read = true;
    return &it->second.value;
}

std::string
Config::getString(const std::string &key) const
{
    const std::string *v = find(key);
    fatal_if(!v, "missing config key '%s'", key.c_str());
    return *v;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const std::string *v = find(key);
    return v ? *v : fallback;
}

long
Config::getInt(const std::string &key) const
{
    std::string v = getString(key);
    char *end = nullptr;
    long out = std::strtol(v.c_str(), &end, 0);
    fatal_if(end == v.c_str() || *end != '\0',
             "config key '%s' has non-integer value '%s'", key.c_str(),
             v.c_str());
    return out;
}

long
Config::getInt(const std::string &key, long fallback) const
{
    return find(key) ? getInt(key) : fallback;
}

double
Config::getDouble(const std::string &key) const
{
    std::string v = getString(key);
    char *end = nullptr;
    double out = std::strtod(v.c_str(), &end);
    fatal_if(end == v.c_str() || *end != '\0',
             "config key '%s' has non-numeric value '%s'", key.c_str(),
             v.c_str());
    return out;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    return find(key) ? getDouble(key) : fallback;
}

bool
Config::getBool(const std::string &key) const
{
    std::string v = getString(key);
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '%s' has non-boolean value '%s'", key.c_str(),
          v.c_str());
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    return find(key) ? getBool(key) : fallback;
}

std::vector<std::string>
Config::askedKeys() const
{
    std::vector<std::string> out;
    std::istringstream in(asked_);
    for (std::string key; std::getline(in, key);)
        out.push_back(key);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
Config::requireAllRead() const
{
    const std::vector<std::string> asked = askedKeys();
    std::string msg;
    for (const auto &kv : values_) {
        if (kv.second.read)
            continue;
        msg += (msg.empty() ? "" : "; ") + ("unknown config key '" +
                                           kv.first + "'");
        auto nearest = std::min_element(
            asked.begin(), asked.end(), [&](const auto &a, const auto &b) {
                return editDistance(kv.first, a) < editDistance(kv.first, b);
            });
        if (nearest != asked.end())
            msg += " (did you mean '" + *nearest + "'?)";
    }
    fatal_if(!msg.empty(), "%s", msg.c_str());
}

std::vector<std::string>
Config::parseArgs(int argc, char **argv)
{
    std::vector<std::string> leftovers;
    for (int i = 1; i < argc; ++i) {
        std::string tok(argv[i]);
        auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            leftovers.push_back(tok);
            continue;
        }
        set(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return leftovers;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &kv : values_)
        os << kv.first << "=" << kv.second.value << "\n";
    return os.str();
}

std::string
knobHelp(const std::string &title, const std::string &list)
{
    std::string out = title + "\n";
    std::istringstream in(list);
    for (std::string name, def, doc; std::getline(in, name, '\t') &&
                                     std::getline(in, def, '\t') &&
                                     std::getline(in, doc);)
        out += "  " + name + " (default " + (def.empty() ? "empty" : def) +
               ")\n      " + doc + "\n";
    return out;
}

} // namespace nifdy
